package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/datagen"
	"repro/internal/rdf"
)

// inputs are the files one workload hands to the program. The program never
// sees the seed, only these files.
type inputs struct {
	Files   []string // absolute paths, in document order
	Glob    string   // what the CLI is given: the file, or a glob over the shards
	SHA256  []string // one per file
	Triples int
}

// generateInputs writes the dataset as N-Triples shards under dir. The
// dataset's content is fixed by (dataset, scale); the seed drives the order
// of the triples and where the shards are cut, so that every seed costs the
// program the same work on a different byte stream.
func generateInputs(dataset string, scale float64, shards int, seed int64, dir string) (*inputs, error) {
	spec, ok := datagen.ByName(dataset)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", dataset)
	}
	ds := spec.Generate(scale)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ds.Triples), func(i, j int) { ds.Triples[i], ds.Triples[j] = ds.Triples[j], ds.Triples[i] })

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &inputs{Triples: len(ds.Triples)}
	base := strings.ToLower(dataset)
	from := 0
	for s := 0; s < shards; s++ {
		to := len(ds.Triples)
		if s < shards-1 {
			// An even cut moved by up to a tenth of a shard either way.
			even := len(ds.Triples) / shards
			to = even*(s+1) + rng.Intn(even/5+1) - even/10
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-%02d.nt", base, s))
		sum, err := writeShard(path, &rdf.Dataset{Dict: ds.Dict, Triples: ds.Triples[from:to]})
		if err != nil {
			return nil, err
		}
		in.Files = append(in.Files, path)
		in.SHA256 = append(in.SHA256, sum)
		from = to
	}
	in.Glob = in.Files[0]
	if shards > 1 {
		in.Glob = filepath.Join(dir, base+"-*.nt")
	}
	return in, nil
}

func writeShard(path string, ds *rdf.Dataset) (sum string, err error) {
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	bw := bufio.NewWriterSize(io.MultiWriter(f, h), 1<<20)
	if err := rdf.WriteNTriples(bw, ds); err != nil {
		return "", err
	}
	if err := bw.Flush(); err != nil {
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
