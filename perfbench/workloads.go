package main

// workload is one benchmark input set and the loop that drives it. The
// why line mirrors BENCHMARK.json; rationale records why the workload
// exists and which layers it is meant to load.
type workload struct {
	name      string
	why       string
	rationale string
	// aliases maps the generic gated metric names of BENCHMARK.json
	// onto this workload's own user-facing metric.
	aliases map[string]string
	run     func(*runCtx) error
}

func (w workload) alias(generic string) string {
	if a, ok := w.aliases[generic]; ok {
		return a
	}
	return generic
}

var workloads = []workload{
	{
		name: "zone-sweep",
		why:  "batch scan of a multi-TLD registry zone against 10k references (detect -backend both); core detection and domain parsing dominate",
		rationale: "The paper's §5 measurement: a whole registry zone (the registry generator's ~0.7% IDN share " +
			"and its planted homographs, spread over .com/.net/.org/.co.uk/.xn--p1ai with www. names) runs " +
			"through NormalizeZoneLineAll → DetectStreamBytesBackend(both, nproc workers) → SortMatches " +
			"as a closed loop of whole-zone sweeps. It is the only workload where core detection and domain " +
			"parsing dominate: ASCII lines take the skeleton probe, IDN lines decode + postings + skeleton, " +
			"which are exactly the paths a change to the detection indexes moves.",
		aliases: map[string]string{"throughput_per_s": "sweep_names_per_s"},
		run:     runZoneSweep,
	},
	{
		name: "serve",
		why:  "open-loop POST /v1/detect mix over loopback HTTP with scheduled snapshot reloads; net/http and JSON dominate",
		rationale: "The §7.2 countermeasure path: an open loop of /v1/detect requests (single names and " +
			"multi-name batches drawn from the registry zone, so hits come at the zone's planted-homograph " +
			"share; mostly the postings backend with some skeleton/both; a /v1/explain after each flagged " +
			"single name) on a loopback listener at a ladder of fixed offered rates, ending " +
			"in a saturating rung, while /v1/reload swaps between two compiled snapshots on a fixed " +
			"schedule. net/http and JSON dominate and core is a small share; the reloads exercise " +
			"core.Engine and snapshot writes beside the reads.",
		aliases: map[string]string{"throughput_per_s": "serve_capacity_rps"},
		run:     runServe,
	},
	{
		name: "monitor",
		why:  "zone generations through zonewatch, the survey batcher and durable survey jobs against in-process DNS/web simulators; triage dominates",
		rationale: "The §6–7 loop in one process: zonewatch.ScanOnce picks up each new zone generation, " +
			"SurveyBatcher.Tick cuts batches, and Server.SubmitSurvey runs durable jobs (jobstore plus the " +
			"triage DNS → web → blacklist stages) against dnsserver/websim/hostsim over real UDP/TCP. The " +
			"zone is smaller than zone-sweep's and each generation adds hundreds of planted homographs, " +
			"so durable writes, DNS probing and web classification dominate and detection only sees the " +
			"additions. A generation ends when every job's manifest in the store is terminal.",
		aliases: map[string]string{"throughput_per_s": "monitor_lines_per_s"},
		run:     runMonitor,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
