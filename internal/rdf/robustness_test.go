package rdf

import (
	"strings"
	"testing"
	"testing/quick"
)

// The parsers face arbitrary input from the filesystem; none of them may
// panic, whatever the bytes. Errors are fine, crashes are not.

func TestNTriplesNeverPanics(t *testing.T) {
	f := func(input string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on %q: %v", input, r)
				ok = false
			}
		}()
		for _, cfg := range []StreamConfig{{}, {Shards: 3, BlockBytes: 5, Lenient: true}} {
			streamNT(input, cfg)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTurtleNeverPanics(t *testing.T) {
	f := func(input string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on %q: %v", input, r)
				ok = false
			}
		}()
		streamTTL(input, 16)
		streamTTL(input, turtleWindow)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// Adversarial fragments around the tokenizer's edges.
	for _, in := range []string{
		"@prefix", "@base", "PREFIX", "@prefix :",
		"a a a", ":", "<>", `""`, `"""`, "_:", "1", "+", "-", ".",
		"@prefix p: <x> . p:a p:b 1.2.3 .",
		"@prefix p: <x> . p:a p:b \"l\"@ .",
		"@prefix p: <x> . p:a a p:b ; .",
		strings.Repeat("#comment\n", 5),
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("panic on %q: %v", in, r)
				}
			}()
			streamTTL(in, 16)
			streamTTL(in, turtleWindow)
		}()
	}
}
