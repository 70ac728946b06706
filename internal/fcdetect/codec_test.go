package fcdetect

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"repro/internal/dataflow"
)

func TestColumnsCodecRoundTrip(t *testing.T) {
	for _, c := range []*columns{
		{n: []uint32{}},
		{n: []uint32{1, 0, 3, 0, 0, ^uint32(0)}},
		{n: append(make([]uint32, 300), 7, 1<<20, 1<<7)},
	} {
		got, err := (columnsCodec{}).DecodeValue(columnsCodec{}.AppendValue(nil, c))
		if err != nil || !reflect.DeepEqual(got.n, c.n) {
			t.Errorf("decode(encode(%v)) = %v, %v", c.n, got, err)
		}
	}
}

// TestColumnsCodecRejectsBadInput: truncated and oversized records fail with
// ErrCorruptRecord, which the engine's exchange turns into the job's failure.
func TestColumnsCodecRejectsBadInput(t *testing.T) {
	good := columnsCodec{}.AppendValue(nil, &columns{n: []uint32{1, 2, 3, 4, 5, 300}})
	bad := map[string][]byte{
		"truncated":           good[:len(good)-1],
		"one counter short":   good[:len(good)-2],
		"trailing":            append(append([]byte{}, good...), 0),
		"counter over uint32": append(binary.AppendUvarint([]byte{1}, 1<<40), 0),
		"unterminated":        {0x80},
	}
	for name, src := range bad {
		if _, err := (columnsCodec{}).DecodeValue(src); !errors.Is(err, dataflow.ErrCorruptRecord) {
			t.Errorf("%s: err = %v, want ErrCorruptRecord", name, err)
		}
	}
}

func TestColumnsAdd(t *testing.T) {
	want := []uint32{11, 22, 33, 40, 50, 60}
	if sum := (&columns{n: []uint32{1, 2, 3}}).add(&columns{n: []uint32{10, 20, 30, 40, 50, 60}}); !reflect.DeepEqual(sum.n, want) {
		t.Errorf("short+long = %v", sum.n)
	}
	if sum := (&columns{n: []uint32{10, 20, 30, 40, 50, 60}}).add(&columns{n: []uint32{1, 2, 3}}); !reflect.DeepEqual(sum.n, want) {
		t.Errorf("long+short = %v", sum.n)
	}
}

// FuzzDecodeColumns: whatever the bytes, decoding fails with an error
// wrapping ErrCorruptRecord or returns columns that round-trip — and never
// holds more counters than the record has bytes.
func FuzzDecodeColumns(f *testing.F) {
	f.Add(columnsCodec{}.AppendValue(nil, &columns{n: []uint32{1, 2, 3, 4, 5, 6}}))
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, src []byte) {
		c, err := (columnsCodec{}).DecodeValue(src)
		if err != nil {
			if !errors.Is(err, dataflow.ErrCorruptRecord) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if cap(c.n) > len(src) || len(c.n)%3 != 0 {
			t.Fatalf("%d counters (cap %d) from %d bytes", len(c.n), cap(c.n), len(src))
		}
		if again, err := (columnsCodec{}).DecodeValue(columnsCodec{}.AppendValue(nil, c)); err != nil || !reflect.DeepEqual(again.n, c.n) {
			t.Fatalf("re-encoding does not round-trip: %v", err)
		}
	})
}
