package browserpolicy

import (
	"testing"

	"repro/internal/confusables"
)

// ucForTest maps the Cyrillic lookalikes of "apple" to Latin.
func ucForTest() *confusables.DB {
	uc := confusables.New()
	uc.Add(0x0430, []rune{'a'}, "а") // Cyrillic a
	uc.Add(0x0440, []rune{'p'}, "р") // Cyrillic er
	uc.Add(0x04CF, []rune{'l'}, "ӏ") // Cyrillic palochka
	uc.Add(0x0435, []rune{'e'}, "е") // Cyrillic ie
	return uc
}

func TestDecideASCII(t *testing.T) {
	p := &Policy{}
	d, r := p.Decide("google")
	if d != DisplayUnicode || r != ReasonASCII {
		t.Errorf("got %v, %v", d, r)
	}
}

func TestDiacriticAttackDisplaysUnicode(t *testing.T) {
	// "facébook" is single-script Latin: browsers show it in Unicode —
	// the paper's core motivating gap.
	p := &Policy{UC: ucForTest()}
	d, r := p.Decide("facébook")
	if d != DisplayUnicode || r != ReasonSingleScript {
		t.Errorf("facébook: %v, %v", d, r)
	}
}

func TestMixedLatinCyrillicPunycoded(t *testing.T) {
	p := &Policy{}
	d, r := p.Decide("gооgle") // Latin g,l,e + Cyrillic о
	if d != DisplayPunycode || r != ReasonDisallowedMix {
		t.Errorf("gооgle: %v, %v", d, r)
	}
}

func TestWholeScriptConfusable(t *testing.T) {
	p := &Policy{UC: ucForTest()}
	// All-Cyrillic "аррӏе" (apple): single script, but every letter is
	// a Latin lookalike — punycoded by the 2017+ policy.
	d, r := p.Decide("аррӏе")
	if d != DisplayPunycode || r != ReasonWholeScript {
		t.Errorf("аррӏе: %v, %v", d, r)
	}
	// Without the UC database (pre-2017 behaviour) it displays.
	pre := &Policy{}
	if d, _ := pre.Decide("аррӏе"); d != DisplayUnicode {
		t.Error("pre-2017 policy punycoded a single-script label")
	}
	// A genuine Cyrillic word with non-confusable letters displays.
	if d, _ := p.Decide("домен"); d != DisplayUnicode {
		t.Error("genuine Cyrillic word punycoded")
	}
	// A multi-rune prototype makes a letter Latin-confusable only when
	// every rune of it is ASCII, not just the first.
	p.UC.Add(0x043C, []rune("rn"), "м")        // Cyrillic em
	p.UC.Add(0x0448, []rune{'w', 0x0301}, "ш") // Cyrillic sha: w + combining acute
	if d, r := p.Decide("рам"); d != DisplayPunycode || r != ReasonWholeScript {
		t.Errorf("рам: %v, %v", d, r)
	}
	if d, r := p.Decide("раш"); d != DisplayUnicode {
		t.Errorf("раш: %v, %v (prototype has a non-ASCII tail)", d, r)
	}
}

func TestCJKKanaMixAllowed(t *testing.T) {
	p := &Policy{UC: ucForTest()}
	// エ業大学: Katakana + Han — a legitimate Japanese combination, so
	// browsers display it even though it is a homograph of 工業大学
	// (the paper's Section 2.2 example of what current defenses miss).
	d, r := p.Decide("エ業大学")
	if d != DisplayUnicode || r != ReasonAllowedMix {
		t.Errorf("エ業大学: %v, %v", d, r)
	}
	// Latin + Han is also allowed (the browsers' documented exception).
	if d, _ := p.Decide("abc工"); d != DisplayUnicode {
		t.Error("Latin+Han punycoded")
	}
}

func TestDisallowedGreekMix(t *testing.T) {
	p := &Policy{}
	if d, _ := p.Decide("gοοgle"); d != DisplayPunycode { // Greek omicron
		t.Error("Latin+Greek mix displayed")
	}
}

func TestDigitsAndHyphensAreNeutral(t *testing.T) {
	p := &Policy{}
	if d, _ := p.Decide("домен-24"); d != DisplayUnicode {
		t.Error("digits/hyphen broke single-script detection")
	}
}

func TestInvisibleOnly(t *testing.T) {
	p := &Policy{}
	if d, r := p.Decide("́̂"); d != DisplayPunycode || r != ReasonInvisible {
		t.Errorf("combining-only label: %v, %v", d, r)
	}
}

func TestEvaluateTally(t *testing.T) {
	p := &Policy{UC: ucForTest()}
	tally := p.Evaluate([]string{"google", "facébook", "gооgle", "аррӏе"})
	if tally.Unicode != 2 || tally.Punycode != 2 {
		t.Errorf("tally = %+v", tally)
	}
	if tally.ByReason[ReasonWholeScript] != 1 || tally.ByReason[ReasonDisallowedMix] != 1 {
		t.Errorf("reasons = %+v", tally.ByReason)
	}
}
