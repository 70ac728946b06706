package fcdetect

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cind"
	"repro/internal/dataflow"
	"repro/internal/rdf"
)

// Codecs of the detector's records, registered at package load: the packed
// binary counts of fcd/binary-sum take the engine's integer-record codecs,
// the column codec carries the fcd/unary-sum partials between processes.

// conditionCountCodec carries Pair[cind.Condition, int], the record of the
// reference detector and of the benchmark's engine kernels.
type conditionCountCodec struct{}

func (conditionCountCodec) AppendKey(dst []byte, k cind.Condition) []byte {
	return cind.AppendCondition(dst, k)
}
func (conditionCountCodec) DecodeKey(src []byte) cind.Condition { return cind.ConditionAt(src) }
func (conditionCountCodec) AppendValue(dst []byte, v int) []byte {
	return binary.AppendVarint(dst, int64(v))
}
func (conditionCountCodec) DecodeValue(src []byte) int {
	v, _ := binary.Varint(src)
	return int(v)
}

// columnsCodec carries *columns as the uvarints of its counters. DecodeValue
// cannot fail, so it hands bytes it cannot accept on as a value whose err is
// set, and Detect fails the run on that.
type columnsCodec struct{}

func (columnsCodec) AppendValue(dst []byte, c *columns) []byte {
	for _, n := range c.n {
		dst = binary.AppendUvarint(dst, uint64(n))
	}
	return dst
}

func (columnsCodec) DecodeValue(src []byte) *columns {
	c, err := decodeColumns(src)
	if err != nil {
		return &columns{err: err}
	}
	return c
}

// decodeColumns allocates four bytes per byte of src: a counter takes at
// least one byte, and nothing in the record declares a length.
func decodeColumns(src []byte) (*columns, error) {
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
	dataflow.RegisterPairCodec[cind.Condition, int](conditionCountCodec{})
	dataflow.RegisterUint64Record[BinaryKey]()
	dataflow.RegisterValueCodec[*columns](columnsCodec{})
}
