package rdfind

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

const facadeDoc = `<s1> <memberOf> <g1> .
<s1> <type> <Person> .
<s2> <memberOf> <g1> .
<s2> <type> <Person> .
<s3> <memberOf> <g2> .
<s3> <type> <Person> .
`

func TestFaultFacadeCancelAndLenient(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dirty.nt")
	if err := os.WriteFile(path, []byte(facadeDoc+"broken line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, malformed, err := ReadSource(Source{Inputs: []string{path}, Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(malformed) != 1 || malformed[0].Path != path || malformed[0].Err.Line != 7 {
		t.Fatalf("malformed = %v, want one error on line 7 of %s", malformed, path)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, stats, err := DiscoverContext(ctx, ds, Config{Support: 2, Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want to wrap context.Canceled", err)
	}
	if stats == nil {
		t.Error("cancelled run must report partial stats")
	}
	if res, _, err := TryDiscover(ds, Config{Support: 2, Workers: 2}); err != nil || res == nil {
		t.Errorf("TryDiscover on a healthy run: res=%v err=%v", res, err)
	}
}
