package extract

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/bloom"
	"repro/internal/dataflow"
)

// Codecs of the extractor's records, registered at package load: the support
// columns of ext/support-sum and the work units of ext/place-units cross
// processes, and so do the candidate and validation sets of
// ext/merge-candidates and ext/validate. A decoder cannot fail: bytes
// it cannot accept decode to nil (a column, set or id list; a unit's lists)
// and a key to the all-ones id, which no table issues. The stage consuming
// the record fails the job with dataflow.ErrCorruptRecord on those, as on any
// id at or beyond the table size (checkIDs, checkSet).

// bloomHashes is the hash count of every work-unit filter.
const bloomHashes = 4

// checkIDs reports dataflow.ErrCorruptRecord unless every list is an id list
// — non-nil, ascending — whose ids a table of n captures issued.
func checkIDs(n int, lists ...[]uint32) error {
	for _, ids := range lists {
		if ids == nil || len(ids) > 0 && int(ids[len(ids)-1]) >= n {
			return fmt.Errorf("%w: capture id list beyond a table of %d captures", dataflow.ErrCorruptRecord, n)
		}
	}
	return nil
}

// checkSet is checkIDs for a merged candidate set and its dependent's id.
func checkSet(dep uint32, cs *candSet, n int) error {
	if cs == nil || int(dep) >= n || cs.approx == nil && checkIDs(n, cs.refs) != nil {
		return fmt.Errorf("%w: candidate set of capture id %d in a table of %d captures", dataflow.ErrCorruptRecord, dep, n)
	}
	return nil
}

// appendIDs appends an ascending id list: its length, then the first id and
// each later id's distance to its predecessor minus one, as uvarints.
func appendIDs(dst []byte, ids []uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	next := uint64(0)
	for _, id := range ids {
		dst, next = binary.AppendUvarint(dst, uint64(id)-next), uint64(id)+1
	}
	return dst
}

// idsAt decodes the id list at the front of src and its width, or nil. It
// allocates at most four bytes per byte of src: an id takes at least one.
func idsAt(src []byte) ([]uint32, int) {
	size, w := binary.Uvarint(src)
	if w <= 0 || size > uint64(len(src)-w) {
		return nil, 0
	}
	ids, next := make([]uint32, 0, size), uint64(0)
	for range size {
		gap, n := binary.Uvarint(src[w:])
		if n <= 0 || gap > math.MaxUint32 || next+gap > math.MaxUint32 {
			return nil, 0
		}
		ids, w, next = append(ids, uint32(next+gap)), w+n, next+gap+1
	}
	return ids, w
}

// idKey is the key half of the codecs keyed by a capture id: four big-endian
// bytes.
type idKey struct{}

func (idKey) AppendKey(dst []byte, k uint32) []byte { return binary.BigEndian.AppendUint32(dst, k) }
func (idKey) DecodeKey(src []byte) uint32 {
	if len(src) != 4 {
		return math.MaxUint32
	}
	return binary.BigEndian.Uint32(src)
}

// supportCodec carries a supportColumn as the uvarints of its counters.
type supportCodec struct{}

func (supportCodec) AppendValue(dst []byte, c supportColumn) []byte {
	for _, n := range c {
		dst = binary.AppendUvarint(dst, uint64(n))
	}
	return dst
}

func (supportCodec) DecodeValue(src []byte) supportColumn {
	c := make(supportColumn, 0, len(src))
	for len(src) > 0 {
		n, w := binary.Uvarint(src)
		if w <= 0 || n > math.MaxUint32 {
			return nil
		}
		c, src = append(c, uint32(n)), src[w:]
	}
	return c
}

// candSetCodec carries Pair[uint32, *candSet]: a varint group count, a flags
// byte (bit 0 lineage, bit 1 Bloom), then the id list of an exact set or the
// bloom.Filter image of an approximate one. Decoding allocates fresh objects,
// which keeps the merge's in-place intersection safe.
type candSetCodec struct{ idKey }

func (candSetCodec) AppendValue(dst []byte, v *candSet) []byte {
	dst = binary.AppendVarint(dst, int64(v.count))
	var lineage byte
	if v.lineage {
		lineage = 1
	}
	if v.refs == nil {
		return v.approx.AppendBinary(append(dst, lineage|2))
	}
	return appendIDs(append(dst, lineage), v.refs)
}

func (candSetCodec) DecodeValue(src []byte) *candSet {
	count, w := binary.Varint(src)
	if w <= 0 || count < 1 || w == len(src) {
		return nil
	}
	flags, src := src[w], src[w+1:]
	cs := &candSet{count: int(count), lineage: flags&1 != 0}
	switch flags &^ 1 {
	case 0:
		if cs.refs, w = idsAt(src); cs.refs == nil {
			return nil
		}
	case 2:
		f, n, err := bloom.FromBinary(src)
		if err != nil || f.IsSaturated() {
			return nil
		}
		if nbits, k := f.Geometry(); nbits == 0 || k != bloomHashes {
			return nil
		}
		cs.approx, w = f, n
	default:
		return nil
	}
	if w != len(src) {
		return nil
	}
	return cs
}

// idSetCodec carries Pair[uint32, []uint32], the validation sets, as one id
// list.
type idSetCodec struct{ idKey }

func (idSetCodec) AppendValue(dst []byte, v []uint32) []byte { return appendIDs(dst, v) }
func (idSetCodec) DecodeValue(src []byte) []uint32 {
	if ids, w := idsAt(src); w == len(src) {
		return ids
	}
	return nil
}

// workUnitCodec carries Pair[uint32, workUnit], the ext/place-units shuffle
// that spreads dominant-group slices across workers, as its two id lists.
type workUnitCodec struct{ idKey }

func (workUnitCodec) AppendValue(dst []byte, v workUnit) []byte {
	return appendIDs(appendIDs(dst, v.Deps), v.All)
}

func (workUnitCodec) DecodeValue(src []byte) workUnit {
	deps, n := idsAt(src)
	all, m := idsAt(src[n:])
	if deps == nil || all == nil || n+m != len(src) {
		return workUnit{}
	}
	return workUnit{Deps: deps, All: all}
}

func init() {
	dataflow.RegisterValueCodec[supportColumn](supportCodec{})
	dataflow.RegisterPairCodec[uint32, workUnit](workUnitCodec{})
	dataflow.RegisterPairCodec[uint32, *candSet](candSetCodec{})
	dataflow.RegisterPairCodec[uint32, []uint32](idSetCodec{})
}
