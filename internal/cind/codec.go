package cind

import (
	"encoding/binary"

	"repro/internal/rdf"
)

// Fixed-width binary encodings of the model types, used by the dataflow
// record codecs (dataflow.ValueCodec). Every field is written verbatim, so
// the encodings are injective: equal values encode to equal bytes and
// distinct values to distinct bytes — the property the engine's routing and
// spilling of keys by their bytes relies on. Widths are constants of the
// model: a Condition is two attribute bytes plus two little-endian 32-bit
// values (10 bytes), a Capture adds its projection attribute byte (11
// bytes).

// ConditionWireSize is the encoded width of a Condition.
const ConditionWireSize = 10

// CaptureWireSize is the encoded width of a Capture.
const CaptureWireSize = 11

// AppendCondition appends the 10-byte encoding of c.
func AppendCondition(dst []byte, c Condition) []byte {
	dst = append(dst, byte(c.A1), byte(c.A2))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(c.V1))
	return binary.LittleEndian.AppendUint32(dst, uint32(c.V2))
}

// ConditionAt decodes the Condition starting at src[0].
func ConditionAt(src []byte) Condition {
	return Condition{
		A1: rdf.Attr(src[0]),
		A2: rdf.Attr(src[1]),
		V1: rdf.Value(binary.LittleEndian.Uint32(src[2:])),
		V2: rdf.Value(binary.LittleEndian.Uint32(src[6:])),
	}
}

// AppendCapture appends the 11-byte encoding of c.
func AppendCapture(dst []byte, c Capture) []byte {
	dst = append(dst, byte(c.Proj))
	return AppendCondition(dst, c.Cond)
}

// CaptureAt decodes the Capture starting at src[0].
func CaptureAt(src []byte) Capture {
	return Capture{Proj: rdf.Attr(src[0]), Cond: ConditionAt(src[1:])}
}
