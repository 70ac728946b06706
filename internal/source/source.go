// Package source is the streaming ingest layer: it turns a set of input
// files — N-Triples or Turtle, plain or gzipped, named directly or by glob —
// into an ordered stream of rdf.TermBlocks without ever materializing an
// input file in memory. The canonical document order of a multi-file spec is
// the sorted, deduplicated expansion of its inputs; a consumer that folds
// the files' blocks in that order builds exactly the dictionary a
// sequential read of the concatenated files would, which is what keeps
// streamed, sharded, and distributed ingest byte-identical (DESIGN.md
// § Streaming ingest).
package source

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/rdf"
)

// Format names for Spec.Format and File.Format.
const (
	FormatAuto   = "auto"
	FormatNT     = "nt"
	FormatTurtle = "turtle"
)

// Sentinel errors a CLI can classify into usage versus runtime failures.
var (
	// ErrLenientTurtle rejects lenient mode on Turtle input: the Turtle
	// parser has no line-oriented recovery, so silently ignoring the flag
	// would misreport what the run did.
	ErrLenientTurtle = errors.New("lenient mode applies to N-Triples input only")
	// ErrNoInput means the spec's inputs matched no files at all.
	ErrNoInput = errors.New("no input files matched")
	// ErrBadFormat rejects an unknown Spec.Format.
	ErrBadFormat = errors.New(`input format must be "auto", "nt", or "turtle"`)
)

// Spec names a set of inputs and how to decode them. The zero value of
// every field except Inputs is usable.
type Spec struct {
	// Inputs are file paths or filepath.Match globs. Their sorted,
	// deduplicated expansion defines the canonical document order.
	Inputs []string
	// Format is the declared input format: FormatAuto resolves per file
	// from its extension (.ttl/.turtle → Turtle, after stripping .gz).
	Format string
	// Lenient skips malformed N-Triples lines instead of failing, up to
	// rdf.DefaultMaxParseErrors per file.
	Lenient bool
	// Shards is the per-file parallel parse shard count.
	Shards int
	// BlockBytes overrides the N-Triples block granularity (tests).
	BlockBytes int
}

// File is one resolved input: a concrete path plus its decoded format.
type File struct {
	Path   string
	Format string // FormatNT or FormatTurtle, never FormatAuto
}

// Resolved is a validated Spec: the concrete file list in canonical
// document order.
type Resolved struct {
	Files []File
	spec  Spec
}

// Malformed is one skipped input line (lenient mode), attributed to its
// file.
type Malformed struct {
	Path string
	Err  *rdf.SyntaxError
}

func (m Malformed) String() string {
	return fmt.Sprintf("%s: line %d: %v", m.Path, m.Err.Line, m.Err.Err)
}

// InputError marks a failure to open or decode an input file — as opposed to
// a failed discovery — so a CLI can map it to its parse-failure exit class.
type InputError struct {
	Path string
	Err  error
}

func (e *InputError) Error() string { return fmt.Sprintf("%s: %v", e.Path, e.Err) }
func (e *InputError) Unwrap() error { return e.Err }

// Resolve expands the spec's globs, sorts and deduplicates the matches into
// canonical document order, resolves each file's format, and validates the
// combination (lenient Turtle is an error, as is an empty match).
func (s Spec) Resolve() (*Resolved, error) {
	switch s.Format {
	case "", FormatAuto, FormatNT, FormatTurtle:
	default:
		return nil, fmt.Errorf("source: %q: %w", s.Format, ErrBadFormat)
	}
	var paths []string
	for _, in := range s.Inputs {
		if hasGlobMeta(in) {
			matches, err := filepath.Glob(in)
			if err != nil {
				return nil, fmt.Errorf("source: bad glob %q: %w", in, err)
			}
			if len(matches) == 0 {
				return nil, fmt.Errorf("source: %q: %w", in, ErrNoInput)
			}
			paths = append(paths, matches...)
			continue
		}
		paths = append(paths, in)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("source: %w", ErrNoInput)
	}
	sort.Strings(paths)
	res := &Resolved{spec: s}
	for i, p := range paths {
		if i > 0 && p == paths[i-1] {
			continue
		}
		f := File{Path: p, Format: resolveFormat(s.Format, p)}
		if s.Lenient && f.Format == FormatTurtle {
			return nil, fmt.Errorf("source: %s: %w", p, ErrLenientTurtle)
		}
		res.Files = append(res.Files, f)
	}
	return res, nil
}

// hasGlobMeta reports whether the path contains filepath.Match
// metacharacters, so plain paths with no match on disk still surface a
// clean open error instead of a silent empty expansion.
func hasGlobMeta(path string) bool {
	return strings.ContainsAny(path, "*?[")
}

// resolveFormat picks a concrete format for one path: an explicit spec
// format wins; auto looks at the extension after stripping a .gz suffix.
func resolveFormat(specFormat, path string) string {
	if specFormat == FormatNT || specFormat == FormatTurtle {
		return specFormat
	}
	name := strings.ToLower(path)
	name = strings.TrimSuffix(name, ".gz")
	if strings.HasSuffix(name, ".ttl") || strings.HasSuffix(name, ".turtle") {
		return FormatTurtle
	}
	return FormatNT
}

// StreamFile streams one resolved file's blocks to emit, decoding gzip
// transparently (by .gz extension or magic bytes) as a stream: the
// compressed file is never slurped, so peak memory stays O(shards × block
// size) regardless of file size.
func (r *Resolved) StreamFile(i int, emit func(*rdf.TermBlock) error) error {
	f := r.Files[i]
	in, err := os.Open(f.Path)
	if err != nil {
		return &InputError{Path: f.Path, Err: err}
	}
	defer in.Close()
	dec, err := maybeGunzip(in)
	if err != nil {
		return &InputError{Path: f.Path, Err: err}
	}
	cfg := rdf.StreamConfig{
		Shards:     r.spec.Shards,
		BlockBytes: r.spec.BlockBytes,
		Lenient:    r.spec.Lenient,
	}
	switch f.Format {
	case FormatTurtle:
		err = rdf.StreamTurtle(dec, cfg, emit)
	default:
		err = rdf.StreamNTriples(dec, cfg, emit)
	}
	if err != nil {
		return &InputError{Path: f.Path, Err: err}
	}
	return nil
}

// gzipMagic is the two-byte gzip member header.
var gzipMagic = []byte{0x1f, 0x8b}

// maybeGunzip sniffs r and interposes a streaming gzip decoder when the
// content is gzipped.
func maybeGunzip(r io.Reader) (io.Reader, error) {
	br := bufio.NewReaderSize(r, 32<<10)
	head, err := br.Peek(2)
	if err != nil && err != io.EOF {
		return nil, err
	}
	if bytes.Equal(head, gzipMagic) {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, err
		}
		return zr, nil
	}
	return br, nil
}

// AppendFile streams file i into ds through Dataset.AppendBlock: its terms
// join ds's dictionary in first-occurrence order and its triples are
// appended in document order. Lenient-mode skipped lines come back
// attributed to the file.
func (r *Resolved) AppendFile(ds *rdf.Dataset, i int) ([]Malformed, error) {
	var skipped []Malformed
	var remap []rdf.Value
	err := r.StreamFile(i, func(blk *rdf.TermBlock) error {
		remap = ds.AppendBlock(blk, remap)
		for _, e := range blk.Errs {
			skipped = append(skipped, Malformed{Path: r.Files[i].Path, Err: e})
		}
		return nil
	})
	return skipped, err
}

// ReadDataset folds the whole resolved spec into one in-memory Dataset in
// canonical document order. Lenient-mode skipped lines come back attributed
// to their files.
func (r *Resolved) ReadDataset() (*rdf.Dataset, []Malformed, error) {
	ds := rdf.NewDataset()
	var skipped []Malformed
	for i := range r.Files {
		m, err := r.AppendFile(ds, i)
		if err != nil {
			return nil, nil, err
		}
		skipped = append(skipped, m...)
	}
	return ds, skipped, nil
}
