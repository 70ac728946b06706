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
// ext/merge-candidates and ext/validate. Their capture-id keys take the
// engine's built-in uint32 codec. A decoder fails with
// dataflow.ErrCorruptRecord on bytes it cannot accept; the stage consuming a
// decoded record fails the job with it on an id at or beyond the table size
// (checkIDs, checkSet).

// bloomHashes is the hash count of every work-unit filter.
const bloomHashes = 4

// checkIDs reports dataflow.ErrCorruptRecord unless every ascending id list
// holds only ids a table of n captures issued.
func checkIDs(n int, lists ...[]uint32) error {
	for _, ids := range lists {
		if len(ids) > 0 && int(ids[len(ids)-1]) >= n {
			return fmt.Errorf("%w: capture id list beyond a table of %d captures", dataflow.ErrCorruptRecord, n)
		}
	}
	return nil
}

// checkSet is checkIDs for a merged candidate set, nil when mergeCandSets
// poisoned it, and its dependent's id.
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

// idsAt decodes the id list at the front of src and its width, or nil for
// bytes that are none. It allocates at most four bytes per byte of src: an id
// takes at least one.
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

// supportCodec carries a supportColumn as the uvarints of its counters.
type supportCodec struct{}

func (supportCodec) AppendValue(dst []byte, c supportColumn) []byte {
	for _, n := range c {
		dst = binary.AppendUvarint(dst, uint64(n))
	}
	return dst
}

func (supportCodec) DecodeValue(src []byte) (supportColumn, error) {
	c := make(supportColumn, 0, len(src))
	for len(src) > 0 {
		n, w := binary.Uvarint(src)
		if w <= 0 || n > math.MaxUint32 {
			return nil, corrupt("support column")
		}
		c, src = append(c, uint32(n)), src[w:]
	}
	return c, nil
}

// corrupt reports bytes that are no record of the kind named.
func corrupt(what string) error {
	return fmt.Errorf("%w: %s", dataflow.ErrCorruptRecord, what)
}

// candSetCodec carries a *candSet: a varint group count, a flags
// byte (bit 0 lineage, bit 1 Bloom), then the id list of an exact set or the
// bloom.Filter image of an approximate one. Decoding allocates fresh objects,
// which keeps the merge's in-place intersection safe.
type candSetCodec struct{}

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

func (candSetCodec) DecodeValue(src []byte) (*candSet, error) {
	count, w := binary.Varint(src)
	if w <= 0 || count < 1 || w == len(src) {
		return nil, corrupt("candidate set header")
	}
	flags, src := src[w], src[w+1:]
	cs := &candSet{count: int(count), lineage: flags&1 != 0}
	switch flags &^ 1 {
	case 0:
		if cs.refs, w = idsAt(src); cs.refs == nil {
			return nil, corrupt("candidate id list")
		}
	case 2:
		f, n, err := bloom.FromBinary(src)
		if err != nil || f.IsSaturated() {
			return nil, corrupt("candidate filter")
		}
		if nbits, k := f.Geometry(); nbits == 0 || k != bloomHashes {
			return nil, corrupt("candidate filter geometry")
		}
		cs.approx, w = f, n
	default:
		return nil, corrupt("candidate set flags")
	}
	if w != len(src) {
		return nil, corrupt("candidate set length")
	}
	return cs, nil
}

// idSetCodec carries a validation set, the []uint32 of ext/validate, as one
// id list.
type idSetCodec struct{}

func (idSetCodec) AppendValue(dst []byte, v []uint32) []byte { return appendIDs(dst, v) }
func (idSetCodec) DecodeValue(src []byte) ([]uint32, error) {
	if ids, w := idsAt(src); ids != nil && w == len(src) {
		return ids, nil
	}
	return nil, corrupt("validation set")
}

// workUnitCodec carries a workUnit of the ext/place-units shuffle that
// spreads dominant-group slices across workers, as its two id lists.
type workUnitCodec struct{}

func (workUnitCodec) AppendValue(dst []byte, v workUnit) []byte {
	return appendIDs(appendIDs(dst, v.Deps), v.All)
}

func (workUnitCodec) DecodeValue(src []byte) (workUnit, error) {
	deps, n := idsAt(src)
	all, m := idsAt(src[n:])
	if deps == nil || all == nil || n+m != len(src) {
		return workUnit{}, corrupt("work unit")
	}
	return workUnit{Deps: deps, All: all}, nil
}

func init() {
	dataflow.RegisterValueCodec[supportColumn](supportCodec{})
	dataflow.RegisterValueCodec[workUnit](workUnitCodec{})
	dataflow.RegisterValueCodec[*candSet](candSetCodec{})
	dataflow.RegisterValueCodec[[]uint32](idSetCodec{})
}
