package dataflow

import (
	"bytes"
	"errors"
	"fmt"
	"net"
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
}

func TestWireErrorPreservesClassification(t *testing.T) {
	cases := []struct {
		name string
		in   error
	}{
		{"deterministic", &StageError{Stage: "fcd/binary-sum", Worker: 3, Attempt: 2,
			Deterministic: true, Cause: errors.New("divide by zero")}},
		{"transient", &StageError{Stage: "ext/validate", Worker: 1, Attempt: 4,
			Cause: Transient(errors.New("socket reset"))}},
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
	c.distSeed = 0x9e3779b97f4a7c15
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

func TestValueCodecRegistryDerivesPairCodecs(t *testing.T) {
	// int/int was registered by spill tests via RegisterPairCodec; the value
	// registry must auto-derive a ValueCodec for Pair[int, int].
	vc, ok := valueCodecFor[Pair[int, int]]()
	if !ok {
		t.Fatal("no derived codec for Pair[int, int]")
	}
	p := Pair[int, int]{Key: -3, Val: 1 << 40}
	if got := vc.DecodeValue(vc.AppendValue(nil, p)); got != p {
		t.Errorf("pair round trip: got %+v, want %+v", got, p)
	}

	type unregistered struct{ s string }
	if _, ok := valueCodecFor[unregistered](); ok {
		t.Error("registry invented a codec for an unregistered type")
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
		if got := vc.DecodeValue(vc.AppendValue(nil, v)); got != v {
			t.Errorf("int codec: %d -> %d", v, got)
		}
	}
	vc64, ok := valueCodecFor[int64]()
	if !ok {
		t.Fatal("no built-in int64 codec")
	}
	for _, v := range []int64{0, -9, 1 << 60} {
		if got := vc64.DecodeValue(vc64.AppendValue(nil, v)); got != v {
			t.Errorf("int64 codec: %d -> %d", v, got)
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

// TestUint64RecordCodecs: integer records round-trip as values and as count
// keys at the extremes, key bytes order as the integers do, and bytes that
// are no record decode to the all-ones record and the zero count their users
// keep out of their domains.
func TestUint64RecordCodecs(t *testing.T) {
	RegisterUint64Record[packedRecord]()
	vc, ok := valueCodecFor[packedRecord]()
	pc, ok2 := pairCodecFor[packedRecord, int]()
	if !ok || !ok2 {
		t.Fatal("codecs not registered")
	}
	var prev []byte
	for i, r := range []packedRecord{0, 1, 1 << 31, 1<<62 | 5, 1<<64 - 2} {
		if got := vc.DecodeValue(vc.AppendValue(nil, r)); got != r {
			t.Errorf("value %#x decodes to %#x", uint64(r), uint64(got))
		}
		key := pc.AppendKey(nil, r)
		if got := pc.DecodeKey(key); got != r {
			t.Errorf("key %#x decodes to %#x", uint64(r), uint64(got))
		}
		if i > 0 && string(prev) >= string(key) {
			t.Errorf("key bytes of %#x do not sort after its predecessor's", uint64(r))
		}
		prev = key
	}
	for _, n := range []int{1, 63, 64, 1 << 40} {
		if got := pc.DecodeValue(pc.AppendValue(nil, n)); got != n {
			t.Errorf("count %d decodes to %d", n, got)
		}
	}
	for _, src := range [][]byte{nil, {1, 2, 3}, make([]byte, 9)} {
		if vc.DecodeValue(src) != ^packedRecord(0) || pc.DecodeKey(src) != ^packedRecord(0) {
			t.Errorf("bytes %v decode to a record", src)
		}
	}
	for _, src := range [][]byte{nil, {0x80}, {2, 2}} {
		if n := pc.DecodeValue(src); n != 0 {
			t.Errorf("count bytes %v decode to %d", src, n)
		}
	}
	// A pair crosses the wire as one frame.
	pv, _ := valueCodecFor[Pair[packedRecord, int]]()
	p := Pair[packedRecord, int]{Key: 1<<62 | 9, Val: 12}
	if got := pv.DecodeValue(pv.AppendValue(nil, p)); got != p {
		t.Errorf("pair %v decodes to %v", p, got)
	}
}
