package fcdetect

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cind"
	"repro/internal/dataflow"
	"repro/internal/rdf"
)

// Codecs of the detector's records, registered at package load: the packed
// binary counts of fcd/binary-sum take the engine's integer-record codec,
// the column codec carries the fcd/unary-sum partials between processes, and
// the condition codec keys Pair[cind.Condition, int], the record of the
// reference detector and of the benchmark's engine kernels. Their decoders
// fail with dataflow.ErrCorruptRecord on bytes they cannot accept.

// conditionCodec carries a cind.Condition in its fixed-width encoding.
type conditionCodec struct{}

func (conditionCodec) AppendValue(dst []byte, c cind.Condition) []byte {
	return cind.AppendCondition(dst, c)
}
func (conditionCodec) DecodeValue(src []byte) (cind.Condition, error) {
	if len(src) != cind.ConditionWireSize {
		return cind.Condition{}, fmt.Errorf("%w: condition of %d bytes", dataflow.ErrCorruptRecord, len(src))
	}
	return cind.ConditionAt(src), nil
}

// columnsCodec carries *columns as the uvarints of its counters.
type columnsCodec struct{}

func (columnsCodec) AppendValue(dst []byte, c *columns) []byte {
	for _, n := range c.n {
		dst = binary.AppendUvarint(dst, uint64(n))
	}
	return dst
}

// DecodeValue allocates four bytes per byte of src: a counter takes at least
// one byte, and nothing in the record declares a length.
func (columnsCodec) DecodeValue(src []byte) (*columns, error) {
	c := &columns{n: make([]uint32, 0, len(src))}
	for len(src) > 0 {
		n, w := binary.Uvarint(src)
		if w <= 0 || n > uint64(^uint32(0)) {
			return nil, fmt.Errorf("%w: counter columns: truncated or oversized counter", dataflow.ErrCorruptRecord)
		}
		c.n, src = append(c.n, uint32(n)), src[w:]
	}
	if len(c.n)%3 != 0 || len(c.n)/3 > int(rdf.MaxValue)+1 {
		return nil, fmt.Errorf("%w: counter columns: %d counters", dataflow.ErrCorruptRecord, len(c.n))
	}
	return c, nil
}

func init() {
	dataflow.RegisterValueCodec[cind.Condition](conditionCodec{})
	dataflow.RegisterUint64Record[BinaryKey]()
	dataflow.RegisterValueCodec[*columns](columnsCodec{})
}
