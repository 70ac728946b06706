package dataflow

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestBlobListRoundTrip(t *testing.T) {
	blobs := [][]byte{
		{},
		[]byte("a"),
		bytes.Repeat([]byte{0xff}, 300), // length needs a 2-byte uvarint
		[]byte("last"),
	}
	var enc []byte
	for _, b := range blobs {
		enc = appendBlob(enc, b)
	}
	got, err := splitBlobs(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(blobs) {
		t.Fatalf("split %d blobs, want %d", len(got), len(blobs))
	}
	for i := range blobs {
		if !bytes.Equal(got[i], blobs[i]) {
			t.Errorf("blob %d: got %q, want %q", i, got[i], blobs[i])
		}
	}
	if _, err := splitBlobs([]byte{0x05, 'a'}); err == nil {
		t.Error("truncated blob list decoded without error")
	}
}

func TestContributeRoundTrip(t *testing.T) {
	body := []byte{1, 2, 3, 0, 255}
	enc := encodeContribute(300, kindGather, "ext/total-load", body)
	seq, kind, name, got, err := decodeContribute(enc)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 300 || kind != kindGather || name != "ext/total-load" || !bytes.Equal(got, body) {
		t.Errorf("round trip: seq=%d kind=%d name=%q body=%v", seq, kind, name, got)
	}
	if _, _, _, _, err := decodeContribute([]byte{0x80}); err == nil {
		t.Error("corrupt contribute header decoded without error")
	}
	if _, _, _, _, err := decodeContribute([]byte{0x01, kindShuffle, 0x09, 'x'}); err == nil {
		t.Error("truncated contribute name decoded without error")
	}
	// A sequence number beyond int would come back negative.
	huge := append(binary.AppendUvarint(nil, 1<<63), kindGather, 0)
	if seq, _, _, _, err := decodeContribute(huge); err == nil {
		t.Errorf("contribute with seq 2^63 decoded as seq %d", seq)
	}
}

func TestReleaseRoundTrip(t *testing.T) {
	enc := encodeRelease(7, releaseOK, []byte("payload"))
	seq, status, body, err := decodeRelease(enc)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 || status != releaseOK || string(body) != "payload" {
		t.Errorf("round trip: seq=%d status=%d body=%q", seq, status, body)
	}
	if _, _, _, err := decodeRelease(nil); err == nil {
		t.Error("empty release decoded without error")
	}
	if seq, _, _, err := decodeRelease(append(binary.AppendUvarint(nil, 1<<63), releaseOK)); err == nil {
		t.Errorf("release with seq 2^63 decoded as seq %d", seq)
	}
}

func TestWireErrorPreservesClassification(t *testing.T) {
	cases := []struct {
		name string
		in   error
	}{
		{"deterministic", &StageError{Stage: "fcd/binary-sum", Worker: 3, Attempt: 2,
			Deterministic: true, Cause: errors.New("divide by zero")}},
		{"transient", &StageError{Stage: "ext/validate", Worker: 1, Attempt: 4,
			Cause: transient(errors.New("socket reset"))}},
		{"bare", errors.New("not a stage error")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := decodeWireError(encodeWireError(tc.in))
			var want *StageError
			if errors.As(tc.in, &want) {
				if got.Stage != want.Stage || got.Worker != want.Worker ||
					got.Attempt != want.Attempt || got.Deterministic != want.Deterministic {
					t.Errorf("classification lost: got %+v, want %+v", got, want)
				}
				if IsTransient(got.Cause) != IsTransient(want.Cause) {
					t.Errorf("transience lost: got %v", got.Cause)
				}
			} else if got.Stage != "cluster" || got.Worker != -1 {
				t.Errorf("bare error not wrapped as cluster failure: %+v", got)
			}
			if !errors.Is(got, ErrRemoteFailure) {
				t.Errorf("decoded error does not wrap ErrRemoteFailure: %v", got)
			}
		})
	}
}

func TestDistHashDeterministicAndSeedSensitive(t *testing.T) {
	key := []byte("capture-bytes")
	if distHash(42, key) != distHash(42, key) {
		t.Error("same seed and bytes hashed differently")
	}
	if distHash(42, key) == distHash(43, key) {
		t.Error("different seeds collided (suspicious for FNV mixing)")
	}
	// Partitioning must cover all workers reasonably for small ints.
	c := NewContext(1)
	c.workers = 4
	seen := map[int]bool{}
	for i := 0; i < 256; i++ {
		seen[c.distPartition([]byte{byte(i), byte(i >> 4)})] = true
	}
	if len(seen) != 4 {
		t.Errorf("256 keys landed on %d of 4 partitions", len(seen))
	}
}

func TestUvarintAt(t *testing.T) {
	b := appendBlob(nil, []byte("xy"))
	n, w, ok := uvarintAt(b)
	if !ok || n != 2 || w != 1 {
		t.Errorf("uvarintAt = (%d, %d, %v)", n, w, ok)
	}
	if _, _, ok := uvarintAt(nil); ok {
		t.Error("uvarintAt accepted empty input")
	}
	// Values that do not fit a non-negative int are rejected, not wrapped: a
	// fault index of 2^63 once passed the coordinator's bounds check as a
	// negative index.
	for _, v := range []uint64{1 << 63, math.MaxUint64} {
		if n, _, ok := uvarintAt(binary.AppendUvarint(nil, v)); ok {
			t.Errorf("uvarintAt(%d) = %d, want rejection", v, n)
		}
	}
	if n, _, ok := uvarintAt(binary.AppendUvarint(nil, math.MaxInt)); !ok || n != math.MaxInt {
		t.Errorf("uvarintAt(MaxInt) = (%d, %v)", n, ok)
	}
}

// TestWireMessageFraming exercises writeMsg/readMsg over a real socket pair,
// including the oversized-frame guard.
func TestWireMessageFraming(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		writeMsg(a, msgContribute, []byte("hello frame"))
	}()
	r := newWireReader(b)
	typ, payload, err := readMsg(r)
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgContribute || string(payload) != "hello frame" {
		t.Errorf("framed message: type=%d payload=%q", typ, payload)
	}
	// A payload beyond wireReadChunk arrives through the growing buffer.
	big := bytes.Repeat([]byte("0123456789"), wireReadChunk/4)
	go func() {
		writeMsg(a, msgRelease, big)
	}()
	if typ, payload, err := readMsg(r); err != nil || typ != msgRelease || !bytes.Equal(payload, big) {
		t.Errorf("large frame: type=%d, %d of %d bytes, err %v", typ, len(payload), len(big), err)
	}
	// An advertised length beyond maxWireMsg must be rejected before any
	// allocation attempt.
	go func() {
		hdr := []byte{msgContribute, 0xff, 0xff, 0xff, 0xff, 0xff, 0x07} // ~2^34
		a.SetWriteDeadline(time.Now().Add(time.Second))
		a.Write(hdr)
	}()
	if _, _, err := readMsg(newWireReader(b)); err == nil {
		t.Error("oversized frame accepted")
	}
}

// TestWireMalformedWelcomeIsCorruptRecord: a worker dialing a coordinator
// that answers its hello with a welcome it cannot serve fails DialWorker with
// ErrCorruptRecord, instead of panicking later on the bad width or rank.
func TestWireMalformedWelcomeIsCorruptRecord(t *testing.T) {
	const rank = 1
	for _, tc := range []struct {
		name, welcome string
		ok            bool
	}{
		{"valid", `{"rank":1,"workers":2}`, true},
		{"workers-zero", `{"rank":1,"workers":0}`, false},
		{"workers-negative", `{"rank":1,"workers":-3}`, false},
		{"rank-beyond-width", `{"rank":3,"workers":2}`, false},
		{"rank-mismatch", `{"rank":0,"workers":2}`, false},
		{"workers-beyond-bound", `{"rank":1,"workers":1025}`, false},
		{"not-json", `{`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "coord.sock"))
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				r := newWireReader(conn)
				if typ, _, err := readMsg(r); err != nil || typ != msgHello {
					return
				}
				writeMsg(conn, msgWelcome, []byte(tc.welcome))
				readMsg(r) // hold the connection until the worker closes it
			}()
			w, err := DialWorker("unix", ln.Addr().String(), rank)
			if tc.ok {
				if err != nil {
					t.Fatalf("valid welcome rejected: %v", err)
				}
				if w.Workers() != 2 {
					t.Errorf("Workers() = %d, want 2", w.Workers())
				}
				w.Close()
				return
			}
			if err == nil {
				w.Close()
				t.Fatalf("welcome %s accepted", tc.welcome)
			}
			if !errors.Is(err, ErrCorruptRecord) {
				t.Errorf("welcome %s: err = %v, want ErrCorruptRecord", tc.welcome, err)
			}
		})
	}
}

func TestValueCodecRegistryDerivesPairCodecs(t *testing.T) {
	// Pair[int, int] is registered by no one: the registry derives its codec
	// from the built-in int codec, and a pair with a codec-less half has none.
	vc, ok := valueCodecFor[Pair[int, int]]()
	if !ok {
		t.Fatal("no derived codec for Pair[int, int]")
	}
	p := Pair[int, int]{Key: -3, Val: 1 << 40}
	if got, err := vc.DecodeValue(vc.AppendValue(nil, p)); err != nil || got != p {
		t.Errorf("pair round trip: got %+v, %v, want %+v", got, err, p)
	}
	// A key of 128 bytes or more takes a two-byte length.
	long := Pair[string, int]{Key: string(bytes.Repeat([]byte("k"), 300)), Val: 7}
	lc, _ := valueCodecFor[Pair[string, int]]()
	if got, err := lc.DecodeValue(lc.AppendValue([]byte("prefix"), long)[6:]); err != nil || got != long {
		t.Errorf("long-key pair round trip: %v", err)
	}

	type unregistered struct{ s string }
	if _, ok := valueCodecFor[unregistered](); ok {
		t.Error("registry invented a codec for an unregistered type")
	}
	if _, ok := valueCodecFor[Pair[int, unregistered]](); ok {
		t.Error("registry derived a pair codec with a codec-less half")
	}
	mce := &MissingCodecError{Type: reflect.TypeOf(unregistered{})}
	var target *MissingCodecError
	if !errors.As(fmt.Errorf("stage: %w", mce), &target) || target.Type != mce.Type {
		t.Errorf("MissingCodecError does not survive wrapping: %v", mce)
	}
}

func TestBuiltinIntCodecs(t *testing.T) {
	vc, ok := valueCodecFor[int]()
	if !ok {
		t.Fatal("no built-in int codec")
	}
	for _, v := range []int{0, 1, -1, 1 << 30, -(1 << 30)} {
		if got, err := vc.DecodeValue(vc.AppendValue(nil, v)); err != nil || got != v {
			t.Errorf("int codec: %d -> %d, %v", v, got, err)
		}
	}
	vc64, ok := valueCodecFor[int64]()
	if !ok {
		t.Fatal("no built-in int64 codec")
	}
	for _, v := range []int64{0, -9, 1 << 60} {
		if got, err := vc64.DecodeValue(vc64.AppendValue(nil, v)); err != nil || got != v {
			t.Errorf("int64 codec: %d -> %d, %v", v, got, err)
		}
	}
	vc32, ok := valueCodecFor[uint32]()
	if !ok {
		t.Fatal("no built-in uint32 codec")
	}
	for _, v := range []uint32{0, 1, 1<<32 - 1} {
		if got, err := vc32.DecodeValue(vc32.AppendValue(nil, v)); err != nil || got != v {
			t.Errorf("uint32 codec: %d -> %d, %v", v, got, err)
		}
	}
	for _, src := range [][]byte{nil, {0x80}, {2, 2}, {0, 0, 0}} {
		_, err := vc.DecodeValue(src)
		_, err64 := vc64.DecodeValue(src)
		_, err32 := vc32.DecodeValue(src)
		for _, err := range []error{err, err64, err32} {
			if !errors.Is(err, ErrCorruptRecord) {
				t.Errorf("bytes %v: err = %v, want ErrCorruptRecord", src, err)
			}
		}
	}
}

func TestJSONHelpers(t *testing.T) {
	in := helloMsg{Rank: 3}
	out, err := decodeJSON[helloMsg](encodeJSON(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip: %+v", out)
	}
	if _, err := decodeJSON[helloMsg]([]byte("{")); err == nil {
		t.Error("corrupt JSON decoded without error")
	}
}

type packedRecord uint64

func init() { RegisterUint64Record[packedRecord]() }

// TestUint64RecordCodecs: integer records round-trip as values and as count
// keys at the extremes, key bytes order as the integers do, and bytes that
// are no record or no count fail with ErrCorruptRecord — in a pair too.
func TestUint64RecordCodecs(t *testing.T) {
	vc, ok := valueCodecFor[packedRecord]()
	pc, ok2 := valueCodecFor[Pair[packedRecord, int]]()
	if !ok || !ok2 {
		t.Fatal("codecs not registered")
	}
	var prev []byte
	for i, r := range []packedRecord{0, 1, 1 << 31, 1<<62 | 5, 1<<64 - 2} {
		key := vc.AppendValue(nil, r)
		if got, err := vc.DecodeValue(key); err != nil || got != r {
			t.Errorf("value %#x decodes to %#x, %v", uint64(r), uint64(got), err)
		}
		if i > 0 && string(prev) >= string(key) {
			t.Errorf("key bytes of %#x do not sort after its predecessor's", uint64(r))
		}
		prev = key
	}
	for _, n := range []int{1, 63, 64, 1 << 40} {
		p := Pair[packedRecord, int]{Key: 1<<62 | 9, Val: n}
		if got, err := pc.DecodeValue(pc.AppendValue(nil, p)); err != nil || got != p {
			t.Errorf("pair %v decodes to %v, %v", p, got, err)
		}
	}
	for _, src := range [][]byte{nil, {1, 2, 3}, make([]byte, 9)} {
		if _, err := vc.DecodeValue(src); !errors.Is(err, ErrCorruptRecord) {
			t.Errorf("bytes %v: err = %v, want ErrCorruptRecord", src, err)
		}
	}
	// A count whose last byte is a continuation byte once decoded to a zero
	// count, so a keyed sum silently added 0.
	bad := pc.AppendValue(nil, Pair[packedRecord, int]{Key: 7, Val: 12})
	bad[len(bad)-1] = 0x80
	for _, src := range [][]byte{nil, {0x80}, {8, 0, 0, 0, 0, 0, 0, 0, 7}, bad} {
		if p, err := pc.DecodeValue(src); !errors.Is(err, ErrCorruptRecord) {
			t.Errorf("pair bytes %v decode to %v, %v", src, p, err)
		}
	}
}

// frame is one wire message as writeMsg puts it on a connection.
func frame(typ byte, payload []byte) []byte {
	var b bytes.Buffer
	writeMsg(&b, typ, payload)
	return b.Bytes()
}

// FuzzWireFrames: whatever bytes arrive on a connection, reading a frame and
// decoding its payload as each message kind never panics, never yields a
// negative sequence number or index, and whatever decodes re-encodes to
// bytes that decode to the same values. The payload also goes through the
// exchange's record decode, as a gathered blob list and as shuffle buckets
// of Pair[packedRecord, int] records (fcd/binary-sum's shape): every failure
// wraps ErrCorruptRecord, and the records that decode round-trip. As the
// welcome of rank 1, it decodes only to a width that rank can serve.
func FuzzWireFrames(f *testing.F) {
	f.Add(frame(msgContribute, encodeContribute(3, kindShuffle, "cgc/exchange", appendBlob(appendBlob(nil, []byte("ab")), nil))))
	f.Add(frame(msgRelease, encodeRelease(7, releaseOK, appendBlob(nil, []byte("payload")))))
	f.Add(frame(msgRelease, encodeRelease(8, releaseFailed, encodeWireError(&StageError{Stage: "fcd/binary-sum",
		Worker: 1, Attempt: 2, Cause: transient(errors.New("socket reset"))}))))
	f.Add(frame(msgFaultFired, binary.AppendUvarint(nil, 1<<63)))
	f.Add(frame(msgFailJob, encodeWireError(errors.New("disk full"))))
	f.Add([]byte{msgContribute, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add(frame(msgRelease, appendBlob(nil, []byte{0xff})))
	f.Add(frame(msgWelcome, encodeJSON(welcomeMsg{Rank: 1, Workers: 3, JobSpec: []byte("{}"),
		ProcFaults: []ProcFault{{Seq: 4, Rank: 1, Kind: ProcDisconnect}}, Spent: []int{0}})))
	pc, _ := valueCodecFor[Pair[packedRecord, int]]()
	f.Fuzz(func(t *testing.T, src []byte) {
		typ, payload, err := readMsg(bufio.NewReader(bytes.NewReader(src)))
		if err != nil {
			return
		}
		if typ2, payload2, err := readMsg(bufio.NewReader(bytes.NewReader(frame(typ, payload)))); err != nil ||
			typ2 != typ || !bytes.Equal(payload2, payload) {
			t.Fatalf("frame (%d, %q) re-reads as (%d, %q, %v)", typ, payload, typ2, payload2, err)
		}
		if idx, _, ok := uvarintAt(payload); ok && idx < 0 {
			t.Fatalf("uvarintAt decoded %d", idx)
		}
		if seq, kind, name, body, err := decodeContribute(payload); err == nil {
			s2, k2, n2, b2, err := decodeContribute(encodeContribute(seq, kind, name, body))
			if seq < 0 || err != nil || s2 != seq || k2 != kind || n2 != name || !bytes.Equal(b2, body) {
				t.Fatalf("contribute (%d, %d, %q, %q) re-decodes as (%d, %d, %q, %q, %v)",
					seq, kind, name, body, s2, k2, n2, b2, err)
			}
		}
		if seq, status, body, err := decodeRelease(payload); err == nil {
			s2, st2, b2, err := decodeRelease(encodeRelease(seq, status, body))
			if seq < 0 || err != nil || s2 != seq || st2 != status || !bytes.Equal(b2, body) {
				t.Fatalf("release (%d, %d, %q) re-decodes as (%d, %d, %q, %v)", seq, status, body, s2, st2, b2, err)
			}
		}
		if blobs, err := splitBlobs(payload); err == nil {
			var enc []byte
			for _, b := range blobs {
				enc = appendBlob(enc, b)
			}
			again, err := splitBlobs(enc)
			if err != nil || len(again) != len(blobs) {
				t.Fatalf("%d blobs re-split as %d: %v", len(blobs), len(again), err)
			}
			for i := range blobs {
				if !bytes.Equal(again[i], blobs[i]) {
					t.Fatalf("blob %d: %q re-splits as %q", i, blobs[i], again[i])
				}
			}
		}
		records := func(what string, lists [][]byte, err error) {
			if err == nil {
				var recs []Pair[packedRecord, int]
				if recs, err = decodeLists(pc, lists); err == nil {
					var enc []byte
					for _, p := range recs {
						enc = appendBlob(enc, pc.AppendValue(nil, p))
					}
					if again, err := decodeRecords(nil, pc, enc); err != nil || !reflect.DeepEqual(again, recs) {
						t.Fatalf("%s: %v re-decode as %v, %v", what, recs, again, err)
					}
				}
			}
			if err != nil && !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("%s: untyped error %v", what, err)
			}
		}
		records("blob list", [][]byte{payload}, nil)
		buckets, err := splitBlobs(payload)
		records("shuffle buckets", buckets, err)
		if w, err := decodeWelcome(payload, 1); err != nil {
			if !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("welcome: untyped error %v", err)
			}
		} else if w.Rank != 1 || w.Workers <= 1 || w.Workers > MaxWorkers {
			t.Fatalf("welcome %+v accepted for rank 1", w)
		} else if again, err := decodeWelcome(encodeJSON(w), 1); err != nil || !bytes.Equal(encodeJSON(again), encodeJSON(w)) {
			t.Fatalf("welcome %+v re-decodes as %+v, %v", w, again, err)
		}
		se := decodeWireError(payload)
		again := decodeWireError(encodeWireError(se))
		if again.Stage != se.Stage || again.Worker != se.Worker || again.Attempt != se.Attempt ||
			again.Deterministic != se.Deterministic || IsTransient(again.Cause) != IsTransient(se.Cause) {
			t.Fatalf("wire error %+v re-decodes as %+v", se, again)
		}
	})
}
