package dataflow

import (
	"encoding/binary"
	"reflect"
	"sort"
	"testing"
)

// Tests for the selection bitmap (bitmap.go). The representation invariant —
// bits at positions ≥ Len() in the tail word are always zero — is what Count
// and ForEach rely on, so the suite leans on sizes that are not multiples of
// 64 (the batch-tail case: the last batch of a partition is almost never
// exactly batchSize lanes).

// oracle mirrors a Bitmap as the set of indices that are set.
type oracle map[int]bool

func (o oracle) count() int {
	n := 0
	for _, v := range o {
		if v {
			n++
		}
	}
	return n
}

func (o oracle) sorted() []int {
	var out []int
	for i, v := range o {
		if v {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	if out == nil {
		out = []int{}
	}
	return out
}

// checkAgainstOracle verifies every read operation of b against the oracle.
func checkAgainstOracle(t *testing.T, label string, b Bitmap, o oracle) {
	t.Helper()
	if got, want := b.Count(), o.count(); got != want {
		t.Fatalf("%s: Count = %d, oracle %d", label, got, want)
	}
	for i := 0; i < b.Len(); i++ {
		if got, want := b.Get(i), o[i]; got != want {
			t.Fatalf("%s: Get(%d) = %v, oracle %v", label, i, got, want)
		}
	}
	visited := []int{}
	last := -1
	b.ForEach(func(i int) {
		if i <= last {
			t.Fatalf("%s: ForEach out of order: %d after %d", label, i, last)
		}
		if i < 0 || i >= b.Len() {
			t.Fatalf("%s: ForEach yielded out-of-range index %d (len %d)", label, i, b.Len())
		}
		last = i
		visited = append(visited, i)
	})
	if want := o.sorted(); !reflect.DeepEqual(visited, want) {
		t.Fatalf("%s: ForEach visited %v, oracle %v", label, visited, want)
	}
}

func TestBitmapTailSizes(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 1000, 1023, 1024, 1025} {
		b := NewBitmap(n)
		o := oracle{}
		checkAgainstOracle(t, "fresh", b, o)

		b.SetAll()
		for i := 0; i < n; i++ {
			o[i] = true
		}
		checkAgainstOracle(t, "set-all", b, o)
		// The tail-word invariant, probed directly: And with a full bitmap of
		// the same size must not resurrect bits past n, and Count stays n.
		full := NewBitmap(n)
		full.SetAll()
		b.Or(full)
		b.And(full)
		checkAgainstOracle(t, "and-or-full", b, o)

		if n > 0 {
			b.Clear(n - 1)
			delete(o, n-1)
			b.Clear(0)
			delete(o, 0)
			checkAgainstOracle(t, "cleared-ends", b, o)
		}

		b.ClearAll()
		o = oracle{}
		checkAgainstOracle(t, "all-cleared", b, o)
	}
}

func TestBitmapRangePanics(t *testing.T) {
	b := NewBitmap(65)
	for name, fn := range map[string]func(){
		"Set(-1)":   func() { b.Set(-1) },
		"Set(65)":   func() { b.Set(65) },
		"Clear(65)": func() { b.Clear(65) },
		"Get(65)":   func() { b.Get(65) },
		"And-len":   func() { b.And(NewBitmap(64)) },
		"Or-len":    func() { b.Or(NewBitmap(66)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// FuzzBitmapOps replays an arbitrary byte string as an operation sequence
// over a Bitmap and a second operand bitmap, mirrored against map-based
// oracles, and requires set/clear/set-all/clear-all/and/or/iterate to agree
// at every step. Sizes sweep 0..255, so non-multiple-of-64 tails (the batch
// boundary case) and the all-cleared state are exercised constantly.
func FuzzBitmapOps(f *testing.F) {
	f.Add(uint8(65), []byte{0, 1, 1, 2, 2, 3, 4, 5})
	f.Add(uint8(64), []byte{2, 4, 0, 0, 0, 5, 3})
	f.Add(uint8(63), []byte{2, 2, 5, 4})
	f.Add(uint8(0), []byte{0, 1, 2, 3, 4, 5})
	f.Add(uint8(130), []byte{6, 2, 7, 4, 5})
	f.Fuzz(func(t *testing.T, size uint8, ops []byte) {
		n := int(size)
		a, b := NewBitmap(n), NewBitmap(n)
		ao, bo := oracle{}, oracle{}
		for len(ops) > 0 {
			op := ops[0]
			ops = ops[1:]
			// Operand index from the next two bytes, reduced into range.
			idx := -1
			if n > 0 {
				var raw uint16
				if len(ops) >= 2 {
					raw = binary.LittleEndian.Uint16(ops)
					ops = ops[2:]
				} else if len(ops) == 1 {
					raw = uint16(ops[0])
					ops = nil
				}
				idx = int(raw) % n
			}
			switch op % 8 {
			case 0:
				if idx >= 0 {
					a.Set(idx)
					ao[idx] = true
				}
			case 1:
				if idx >= 0 {
					a.Clear(idx)
					delete(ao, idx)
				}
			case 2:
				a.SetAll()
				for i := 0; i < n; i++ {
					ao[i] = true
				}
			case 3:
				a.ClearAll()
				ao = oracle{}
			case 4:
				a.And(b)
				for i := range ao {
					if !bo[i] {
						delete(ao, i)
					}
				}
			case 5:
				a.Or(b)
				for i, v := range bo {
					if v {
						ao[i] = true
					}
				}
			case 6:
				if idx >= 0 {
					b.Set(idx)
					bo[idx] = true
				}
			case 7:
				if idx >= 0 {
					b.Clear(idx)
					delete(bo, idx)
				}
			}
			checkAgainstOracle(t, "a", a, ao)
			checkAgainstOracle(t, "b", b, bo)
		}
	})
}
