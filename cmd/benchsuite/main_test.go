package main

import (
	"bytes"
	"testing"
)

func TestListAndUsage(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	const want = "experiments: table2, fig2, fig4, fig7, fig8, fig9, fig10, fig11, fig12, fig13, sec86, fig14, appB, ablation (or: all)\n"
	if out.String() != want {
		t.Errorf("-list printed %q, want %q", out.String(), want)
	}
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no -exp exit %d, want 2", code)
	}
	if code := run([]string{"-exp", "nope"}, &out, &errOut); code != 1 {
		t.Errorf("unknown experiment exit %d, want 1", code)
	}
	// There is no -out: performance records come from benchmark/ only.
	if code := run([]string{"-out", t.TempDir(), "-exp", "table2"}, &out, &errOut); code != 2 {
		t.Errorf("-out exit %d, want 2", code)
	}
}
