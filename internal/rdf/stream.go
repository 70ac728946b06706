package rdf

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
)

// This file implements block-streaming ingest: readers that decode an
// arbitrarily large document through a bounded window and hand the caller a
// sequence of TermBlocks — triples encoded against a block-local Dictionary
// — in document order. Nothing proportional to the input is ever held in
// memory by the reader itself; peak footprint is O(shards × block size).
//
// The N-Triples path runs the chunk scanner from ingest.go: chunks are cut
// on line boundaries as they are read, scanned concurrently, and
// re-sequenced so blocks are emitted in document order. Because
// AppendBlock interns each block's terms in first-occurrence order, a
// consumer that folds the blocks into a Dataset in emission order assigns
// exactly the IDs a sequential line-by-line read would, at any shard count
// or block size — the reader parity fuzzer pins this against the reference
// reader in reference_test.go.
//
// The Turtle path wraps the statement parser in a sliding window: parse
// statements from the window; when a parse fails (or succeeds suspiciously
// close to the window's edge, where a truncated token can masquerade as a
// complete one) and more input exists, the window is refilled and the
// statement retried from its start. Statement output is buffered on the
// parser and committed only when the statement completes, so retries never
// duplicate triples.

// TermBlock is one streamed block of parsed triples. Terms holds the block
// dictionary's terms in id (first-occurrence) order; Triples carry those
// block-local ids.
// Errs carries the block's malformed lines (lenient N-Triples mode only),
// in document order. Bytes is the input byte count the block was decoded
// from, for ingest accounting.
type TermBlock struct {
	Terms   []string
	Triples []Triple
	Errs    []*SyntaxError
	Bytes   int
}

// StreamConfig tunes the streaming readers. The zero value is ready to use.
type StreamConfig struct {
	// Shards is the number of concurrent N-Triples parse shards (values
	// below 1 select 1). Ignored by the Turtle reader.
	Shards int
	// BlockBytes is the N-Triples chunk granularity (values <= 0 select
	// 1 MiB). Blocks end on line boundaries, so actual blocks may run a
	// little long.
	BlockBytes int
	// BlockTriples is the Turtle block emission granularity (values <= 0
	// select 4096 triples).
	BlockTriples int
	// Lenient makes the N-Triples reader skip malformed lines, attaching
	// them to blocks as Errs, instead of failing on the first one. The
	// Turtle reader has no lenient mode and ignores this.
	Lenient bool
	// MaxErrors caps lenient-mode malformed lines (values <= 0 select
	// DefaultMaxParseErrors). Exceeding the cap fails the stream.
	MaxErrors int
}

const (
	defaultBlockBytes   = 1 << 20
	defaultBlockTriples = 4096
	// turtleWindow is the Turtle refill granularity and low-water mark.
	turtleWindow = 64 << 10
	// turtleMargin is the lookahead a successfully parsed statement must
	// leave unconsumed before it is committed: the grammar looks at most a
	// few bytes past a token ("^^<", a decimal point and digit, a language
	// subtag), so a statement ending nearer to a non-final window edge is
	// reparsed after a refill in case a truncated token parsed as complete.
	turtleMargin = 8
)

// AppendBlock interns blk's terms into the dataset's dictionary and appends
// its triples in document order. remap is scratch reused across calls; pass
// the previous return value (or nil). Folding a document's blocks in
// emission order yields the same dictionary and triple order at any shard
// count, block size or Turtle window.
func (ds *Dataset) AppendBlock(blk *TermBlock, remap []Value) []Value {
	remap = remap[:0]
	for _, term := range blk.Terms {
		remap = append(remap, ds.Dict.Encode(term))
	}
	for _, t := range blk.Triples {
		ds.Triples = append(ds.Triples, Triple{S: remap[t.S], P: remap[t.P], O: remap[t.O]})
	}
	return remap
}

// StreamNTriples parses an N-Triples document from r as a bounded stream,
// emitting TermBlocks in document order. In strict mode the first malformed
// line aborts with its *SyntaxError (blocks already emitted must be
// discarded by the caller); in lenient mode malformed lines ride along on
// each block's Errs until more than cfg.MaxErrors have been seen, which
// fails the stream with an error naming the first line over the cap.
// A non-nil error from emit stops the stream and is returned unchanged.
func StreamNTriples(r io.Reader, cfg StreamConfig, emit func(*TermBlock) error) error {
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	blockBytes := cfg.BlockBytes
	if blockBytes <= 0 {
		blockBytes = defaultBlockBytes
	}
	maxErrors := cfg.MaxErrors
	if maxErrors <= 0 {
		maxErrors = DefaultMaxParseErrors
	}
	br := bufio.NewReaderSize(r, 64<<10)

	type job struct {
		chunk     []byte
		startLine int
		lines     int
		res       chan shardResult // capacity 1: the worker never blocks
	}
	jobs := make(chan *job)
	// pending is the in-order view of dispatched jobs and the memory bound:
	// at most shards+1 queued chunks plus one per worker are in flight
	// between the reader and the emitter.
	pending := make(chan *job, shards+1)
	quit := make(chan struct{})
	var quitOnce sync.Once
	stop := func() { quitOnce.Do(func() { close(quit) }) }
	defer stop()

	var readErr error // written by the reader before closing pending
	go func() {
		defer close(jobs)
		defer close(pending)
		startLine := 1
		for {
			chunk, err := readChunk(br, blockBytes)
			if len(chunk) > 0 {
				j := &job{
					chunk:     chunk,
					startLine: startLine,
					lines:     bytes.Count(chunk, []byte{'\n'}),
					res:       make(chan shardResult, 1),
				}
				startLine += j.lines
				// Dispatch before enqueueing on pending: once the emitter can
				// see a job, a worker is guaranteed to have received it, so
				// the emitter's <-j.res cannot block forever when an early
				// stop makes the reader bail between the two sends.
				select {
				case jobs <- j:
				case <-quit:
					return
				}
				select {
				case pending <- j:
				case <-quit:
					return
				}
			}
			if err == io.EOF {
				return
			}
			if err != nil {
				readErr = fmt.Errorf("ntriples: %w", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				j.res <- scanShard(j.chunk, j.startLine, j.lines)
			}
		}()
	}

	var finalErr error
	nerrs := 0
	for j := range pending {
		res := <-j.res
		if finalErr != nil {
			continue // drain so the reader and workers can exit
		}
		if !cfg.Lenient {
			if len(res.errs) > 0 {
				finalErr = res.errs[0]
				stop()
				continue
			}
		} else if nerrs+len(res.errs) > maxErrors {
			over := res.errs[maxErrors-nerrs]
			finalErr = fmt.Errorf(
				"ntriples: more than %d malformed lines, giving up (line %d: %v)",
				maxErrors, over.Line, over.Err)
			stop()
			continue
		} else {
			nerrs += len(res.errs)
		}
		blk := &TermBlock{
			Terms:   res.dict.byID,
			Triples: res.triples,
			Errs:    res.errs,
			Bytes:   len(j.chunk),
		}
		if err := emit(blk); err != nil {
			finalErr = err
			stop()
		}
	}
	wg.Wait()
	if finalErr != nil {
		return finalErr
	}
	return readErr
}

// readChunk reads about blockBytes bytes and extends to the next line
// boundary, so no line straddles two chunks. It returns io.EOF alongside
// the final (possibly empty) chunk.
func readChunk(br *bufio.Reader, blockBytes int) ([]byte, error) {
	buf := make([]byte, blockBytes)
	n, err := io.ReadFull(br, buf)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err == io.ErrUnexpectedEOF {
		return buf[:n], io.EOF
	}
	if err != nil {
		return nil, err
	}
	tail, rerr := br.ReadBytes('\n')
	buf = append(buf, tail...)
	if rerr == io.EOF {
		return buf, io.EOF
	}
	if rerr != nil {
		return nil, rerr
	}
	return buf, nil
}

// errTurtleWindow forces a refill-and-retry of a statement that parsed
// successfully but ended too close to a non-final window edge. It never
// escapes streamTurtle.
var errTurtleWindow = errors.New("turtle: statement too close to window edge")

// StreamTurtle parses a Turtle document from r through a bounded sliding
// window, emitting TermBlocks of about cfg.BlockTriples triples in document
// order. Terms use their N-Triples surface form, so a dataset folded from
// Turtle blocks is interchangeable with one read from the equivalent
// N-Triples. Statements larger than the window
// grow it transiently; peak memory is O(largest statement + window).
func StreamTurtle(r io.Reader, cfg StreamConfig, emit func(*TermBlock) error) error {
	blockTriples := cfg.BlockTriples
	if blockTriples <= 0 {
		blockTriples = defaultBlockTriples
	}
	return streamTurtle(r, turtleWindow, blockTriples, emit)
}

func streamTurtle(r io.Reader, window, blockTriples int, emit func(*TermBlock) error) error {
	if window < 16 {
		window = 16
	}
	p := &turtleParser{prefixes: map[string]string{}}
	br := bufio.NewReaderSize(r, 32<<10)
	eofInput := false
	consumed := 0 // input bytes already committed to emitted or pending-flush blocks
	refill := func() error {
		if eofInput {
			return nil
		}
		buf := make([]byte, window)
		n, err := io.ReadFull(br, buf)
		if n > 0 {
			p.input += string(buf[:n])
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			eofInput = true
			p.final = true
			return nil
		}
		if err != nil {
			return fmt.Errorf("turtle: %w", err)
		}
		return nil
	}

	dict := newBlockDictionary(blockTriples)
	triples := make([]Triple, 0, blockTriples)
	lastMark := 0 // total consumed bytes at the previous flush
	flush := func() error {
		if len(triples) == 0 {
			return nil
		}
		mark := consumed + p.pos
		blk := &TermBlock{Terms: dict.byID, Triples: triples, Bytes: mark - lastMark}
		lastMark = mark
		dict = newBlockDictionary(blockTriples)
		triples = make([]Triple, 0, blockTriples)
		return emit(blk)
	}

	for {
		// Compact: drop bytes consumed by committed statements, and keep the
		// window topped up so most statements parse without a retry.
		if p.pos > 0 {
			consumed += p.pos
			p.input = p.input[p.pos:]
			p.pos = 0
		}
		if len(p.input) < window && !eofInput {
			if err := refill(); err != nil {
				return err
			}
			continue
		}
		if p.eof() {
			if !eofInput {
				if err := refill(); err != nil {
					return err
				}
				continue
			}
			break
		}
		// A retry must start from the statement's exact parser state: a
		// directive updates base or prefixes before its closing '.', and a
		// relative @base re-resolved against its own value would apply twice.
		savePos, saveLine, savePending, saveBase := p.pos, p.line, len(p.pending), p.base
		err := p.statement()
		if err == nil && !eofInput && len(p.input)-p.pos < turtleMargin {
			err = errTurtleWindow
		}
		if err != nil {
			if !eofInput {
				p.pos, p.line, p.base = savePos, saveLine, saveBase
				p.pending = p.pending[:savePending]
				if rerr := refill(); rerr != nil {
					return rerr
				}
				continue
			}
			return err
		}
		// Statement complete: commit its triples to the current block.
		for _, t := range p.pending {
			triples = append(triples, Triple{S: dict.Encode(t.s), P: dict.Encode(t.p), O: dict.Encode(t.o)})
		}
		p.pending = p.pending[:0]
		if len(triples) >= blockTriples {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}
