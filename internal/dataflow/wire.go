// Wire layer of the distributed execution mode (see cluster.go): record
// serialization, the seeded byte hash that replaces maphash for
// cross-process partitioning, and the framed message protocol spoken between
// the coordinator and its workers.
//
// ValueCodec is the engine's one serialization contract. Packages register a
// codec per record type; the codec of every Pair[K, V] is derived from the
// codecs of K and V (pairCodec), never registered by hand. A cross-process
// shuffle or gather carries records as blob lists of their encodings, and a
// budgeted ReduceByKey spills the key and value bytes of the same derived
// codec (spill.go). A decoder answers bytes it cannot accept with an error
// wrapping ErrCorruptRecord, and the collective that received them fails the
// job with it (dist.go).
package dataflow

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"sync"
	"time"
)

// ValueCodec serializes single records of type T. AppendValue follows the
// stdlib append-style contract. DecodeValue receives the bytes of one
// AppendValue — or whatever arrived off the wire in their place, which it
// rejects with an error wrapping ErrCorruptRecord. A codec of a type used as
// a Pair key must encode equal keys equally and distinct keys distinctly:
// keys route, and spilled keys merge, by their bytes.
type ValueCodec[T any] interface {
	AppendValue(dst []byte, v T) []byte
	DecodeValue(src []byte) (T, error)
}

// ErrCorruptRecord is what every decode failure wraps — bytes a codec could
// not accept, blob lists that do not parse — and what a record's consumer
// reports (Context.Fail) for well-formed bytes no run produces, such as an id
// beyond its table.
var ErrCorruptRecord = errors.New("dataflow: corrupt wire record")

// corrupt builds an error wrapping ErrCorruptRecord.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorruptRecord}, args...)...)
}

// valueCodecs maps reflect.TypeOf(T) to its registered ValueCodec[T].
var valueCodecs sync.Map

// RegisterValueCodec makes codec available to the distributed operators over
// records of type T, and to budgeted ReduceByKey over pairs with T as key or
// value. Packages register their record types in init; the latest
// registration for a type wins.
func RegisterValueCodec[T any](codec ValueCodec[T]) {
	valueCodecs.Store(reflect.TypeOf((*T)(nil)).Elem(), codec)
}

// valueCodecFor looks up the codec for T, deriving it when T is a Pair.
func valueCodecFor[T any]() (ValueCodec[T], bool) {
	var zero T
	var c any
	var ok bool
	if p, isPair := any(zero).(interface{ derivedCodec() (any, bool) }); isPair {
		c, ok = p.derivedCodec()
	} else {
		c, ok = valueCodecs.Load(reflect.TypeOf((*T)(nil)).Elem())
	}
	if !ok {
		return nil, false
	}
	codec, ok := c.(ValueCodec[T])
	return codec, ok
}

// pairCodec is the codec of Pair[K, V], derived from the codecs of its
// halves: the key's bytes behind their uvarint length, then the value's.
type pairCodec[K comparable, V any] struct {
	key ValueCodec[K]
	val ValueCodec[V]
}

// pairCodecFor derives the codec of Pair[K, V]; false when a half has none.
func pairCodecFor[K comparable, V any]() (pairCodec[K, V], bool) {
	k, okK := valueCodecFor[K]()
	v, okV := valueCodecFor[V]()
	return pairCodec[K, V]{key: k, val: v}, okK && okV
}

func (Pair[K, V]) derivedCodec() (any, bool) { return pairCodecFor[K, V]() }

func (c pairCodec[K, V]) AppendValue(dst []byte, p Pair[K, V]) []byte {
	at := len(dst)
	dst = c.key.AppendValue(append(dst, 0), p.Key)
	if n := len(dst) - at - 1; n < 0x80 {
		dst[at] = byte(n) // a one-byte uvarint: the common case, no copy
	} else {
		kb := append([]byte(nil), dst[at+1:]...)
		dst = append(binary.AppendUvarint(dst[:at], uint64(n)), kb...)
	}
	return c.val.AppendValue(dst, p.Val)
}

func (c pairCodec[K, V]) DecodeValue(src []byte) (Pair[K, V], error) {
	kb, vb, err := nextBlob(src)
	if err != nil {
		return Pair[K, V]{}, err
	}
	return c.decodeHalves(kb, vb)
}

// decodeHalves decodes a pair from its key and value bytes.
func (c pairCodec[K, V]) decodeHalves(kb, vb []byte) (Pair[K, V], error) {
	k, err := c.key.DecodeValue(kb)
	if err != nil {
		return Pair[K, V]{}, err
	}
	v, err := c.val.DecodeValue(vb)
	return Pair[K, V]{Key: k, Val: v}, err
}

// Built-in codecs for the scalar record types: the engine's own collectives
// (partition counts, load sums), counts and capture ids. A uint32 takes four
// big-endian bytes, so key bytes order as the integers do.
type intValueCodec struct{}

func (intValueCodec) AppendValue(dst []byte, v int) []byte { return binary.AppendVarint(dst, int64(v)) }
func (intValueCodec) DecodeValue(src []byte) (int, error) {
	n, err := int64ValueCodec{}.DecodeValue(src)
	return int(n), err
}

type int64ValueCodec struct{}

func (int64ValueCodec) AppendValue(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }
func (int64ValueCodec) DecodeValue(src []byte) (int64, error) {
	n, w := binary.Varint(src)
	if w <= 0 || w != len(src) {
		return 0, corrupt("varint of %d bytes", len(src))
	}
	return n, nil
}

type uint32ValueCodec struct{}

func (uint32ValueCodec) AppendValue(dst []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, v)
}
func (uint32ValueCodec) DecodeValue(src []byte) (uint32, error) {
	if len(src) != 4 {
		return 0, corrupt("uint32 of %d bytes", len(src))
	}
	return binary.BigEndian.Uint32(src), nil
}

func init() {
	RegisterValueCodec[int](intValueCodec{})
	RegisterValueCodec[int64](int64ValueCodec{})
	RegisterValueCodec[uint32](uint32ValueCodec{})
}

// uint64Codec carries an integer record type T in 8 big-endian bytes, whose
// byte order is T's order.
type uint64Codec[T ~uint64] struct{}

func (uint64Codec[T]) AppendValue(dst []byte, v T) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(v))
}
func (uint64Codec[T]) DecodeValue(src []byte) (T, error) {
	if len(src) != 8 {
		return 0, corrupt("uint64 record of %d bytes", len(src))
	}
	return T(binary.BigEndian.Uint64(src)), nil
}

// RegisterUint64Record registers the codec of an integer record type T: as a
// value (PartitionBy, Collect) and, with the built-in int codec, as the key of
// a Pair[T, int] count (ReduceByKey, spilled or across processes).
func RegisterUint64Record[T interface {
	~uint64
	comparable
}]() {
	RegisterValueCodec[T](uint64Codec[T]{})
}

// MissingCodecError reports a distributed operator over a record type with no
// registered codec. Unlike the spill path — which silently stays in memory —
// the distributed engine cannot run the operator at all, so this is terminal.
type MissingCodecError struct {
	Type reflect.Type
}

func (e *MissingCodecError) Error() string {
	return fmt.Sprintf("dataflow: no codec registered for distributed records of type %v", e.Type)
}

// distHash is a seeded FNV-1a over encoded key bytes. Cross-process shuffles
// cannot use maphash (its seed is process-local and not serializable), so
// keys are routed by their codec encoding under a job-wide seed the
// coordinator distributes in the welcome message.
func distHash(seed uint64, b []byte) uint64 {
	h := seed ^ 0xcbf29ce484222325
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// distPartition maps encoded key bytes to a worker index.
func (c *Context) distPartition(b []byte) int {
	if c.workers <= 1 {
		return 0
	}
	return int(distHash(c.distSeed, b) % uint64(c.workers))
}

// Message types of the coordinator/worker protocol. Every message is framed
// as [1-byte type][uvarint payload length][payload], so a connection that
// dies mid-message can never deliver a partial payload — the frame read fails
// atomically and the bytes are discarded with the connection.
const (
	msgHello      byte = 1 + iota // worker → coordinator: rank announcement
	msgWelcome                    // coordinator → worker: job parameters
	msgContribute                 // worker → coordinator: collective input
	msgRelease                    // coordinator → worker: collective output
	msgHeartbeat                  // both directions: liveness
	msgFaultFired                 // worker → coordinator: injected fault index
	msgFailJob                    // worker → coordinator: local terminal failure
	msgAbort                      // coordinator → worker: job failed, drain
	msgGoodbye                    // worker → coordinator: clean completion
)

// maxWireMsg bounds one message payload (1 GiB), a corruption guard.
const maxWireMsg = 1 << 30

// wireReadChunk caps readMsg's first allocation for a payload; past it the
// buffer doubles only as bytes arrive, so a corrupt length costs memory in
// proportion to the bytes actually sent, not up to maxWireMsg.
const wireReadChunk = 1 << 20

// collective kinds.
const (
	kindShuffle byte = 1 // contribute W per-target blobs, receive W per-source blobs
	kindGather  byte = 2 // contribute one blob, receive all W in rank order
)

func kindName(k byte) string {
	if k == kindShuffle {
		return "shuffle"
	}
	return "gather"
}

// writeMsg frames and writes one message. Callers serialize writes per
// connection and arm write deadlines themselves.
func writeMsg(w io.Writer, typ byte, payload []byte) error {
	var hdr [binary.MaxVarintLen64 + 1]byte
	hdr[0] = typ
	n := binary.PutUvarint(hdr[1:], uint64(len(payload)))
	if _, err := w.Write(hdr[:1+n]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// sendMsg writes one framed message under a write deadline.
func sendMsg(conn net.Conn, timeout time.Duration, typ byte, payload []byte) error {
	if timeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(timeout))
	}
	return writeMsg(conn, typ, payload)
}

// newWireReader wraps a connection for readMsg.
func newWireReader(conn net.Conn) *bufio.Reader { return bufio.NewReaderSize(conn, 1<<16) }

// encodeJSON / decodeJSON (de)serialize the control-message documents.
func encodeJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("dataflow: encoding control message: %v", err))
	}
	return b
}

func decodeJSON[T any](b []byte) (T, error) {
	var v T
	err := json.Unmarshal(b, &v)
	return v, err
}

// uvarintAt decodes one uvarint that must fit a non-negative int (an index,
// a length or a sequence number), reporting the value, its width, and
// success.
func uvarintAt(b []byte) (int, int, bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 || v > math.MaxInt {
		return 0, 0, false
	}
	return int(v), n, true
}

// readMsg reads one framed message.
func readMsg(r *bufio.Reader) (byte, []byte, error) {
	typ, err := r.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, nil, err
	}
	if n > maxWireMsg {
		return 0, nil, fmt.Errorf("dataflow: wire message of %d bytes exceeds limit", n)
	}
	if n == 0 {
		return typ, nil, nil
	}
	buf := make([]byte, min(n, wireReadChunk))
	for off := 0; ; {
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			return 0, nil, err
		}
		if off = len(buf); uint64(off) == n {
			return typ, buf, nil
		}
		buf = append(buf, make([]byte, min(n-uint64(off), uint64(off)))...)
	}
}

// appendBlob appends one length-prefixed blob to a blob list.
func appendBlob(dst, blob []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(blob)))
	return append(dst, blob...)
}

// nextBlob splits the first length-prefixed blob off src. The blob and the
// rest alias src.
func nextBlob(src []byte) (blob, rest []byte, err error) {
	n, w := binary.Uvarint(src)
	if w <= 0 || uint64(len(src)-w) < n {
		return nil, nil, corrupt("truncated blob")
	}
	return src[w : w+int(n)], src[w+int(n):], nil
}

// splitBlobs parses a blob list. The returned slices alias src.
func splitBlobs(src []byte) ([][]byte, error) {
	var out [][]byte
	for len(src) > 0 {
		blob, rest, err := nextBlob(src)
		if err != nil {
			return nil, err
		}
		out, src = append(out, blob), rest
	}
	return out, nil
}

// helloMsg announces a (re)connecting worker's rank.
type helloMsg struct {
	Rank int `json:"rank"`
}

// welcomeMsg carries the job parameters from the coordinator to a worker. It
// is re-sent on every hello, so reconnecting and respawned workers always
// hold current spent-fault state.
type welcomeMsg struct {
	Rank            int         `json:"rank"`
	Workers         int         `json:"workers"`
	Seed            uint64      `json:"seed"`
	JobSpec         []byte      `json:"jobSpec,omitempty"`
	HeartbeatMS     int64       `json:"heartbeatMS"`
	DeadlineMS      int64       `json:"deadlineMS"`
	WriteTimeoutMS  int64       `json:"writeTimeoutMS"`
	ReconnectBaseMS int64       `json:"reconnectBaseMS"`
	MaxReconnects   int         `json:"maxReconnects"`
	Faults          []Fault     `json:"faults,omitempty"`
	ProcFaults      []ProcFault `json:"procFaults,omitempty"`
	Spent           []int       `json:"spent,omitempty"`
}

// wireError serializes a terminal failure across the process boundary,
// preserving the StageError classification fields.
type wireError struct {
	Stage         string `json:"stage"`
	Worker        int    `json:"worker"`
	Attempt       int    `json:"attempt"`
	Deterministic bool   `json:"deterministic"`
	Transient     bool   `json:"transient"`
	Msg           string `json:"msg"`
}

func encodeWireError(err error) []byte {
	we := wireError{Stage: "cluster", Worker: -1, Attempt: 1, Msg: err.Error()}
	var se *StageError
	if errors.As(err, &se) {
		we.Stage, we.Worker, we.Attempt, we.Deterministic = se.Stage, se.Worker, se.Attempt, se.Deterministic
		if se.Cause != nil {
			we.Msg = se.Cause.Error()
		}
		we.Transient = IsTransient(se.Cause)
	}
	b, _ := json.Marshal(we)
	return b
}

func decodeWireError(payload []byte) *StageError {
	var we wireError
	if err := json.Unmarshal(payload, &we); err != nil {
		return &StageError{Stage: "cluster", Worker: -1, Attempt: 1,
			Cause: fmt.Errorf("remote failure (undecodable: %v)", err)}
	}
	cause := fmt.Errorf("%w: %s", ErrRemoteFailure, we.Msg)
	if we.Transient {
		cause = Transient(cause)
	}
	return &StageError{Stage: we.Stage, Worker: we.Worker, Attempt: we.Attempt,
		Deterministic: we.Deterministic, Cause: cause}
}

// contribute payload: uvarint seq, 1-byte kind, uvarint name length, name,
// then the kind-specific body.
func encodeContribute(seq int, kind byte, name string, body []byte) []byte {
	out := make([]byte, 0, 2*binary.MaxVarintLen64+1+len(name)+len(body))
	out = binary.AppendUvarint(out, uint64(seq))
	out = append(out, kind)
	out = binary.AppendUvarint(out, uint64(len(name)))
	out = append(out, name...)
	return append(out, body...)
}

func decodeContribute(payload []byte) (seq int, kind byte, name string, body []byte, err error) {
	s, n, ok := uvarintAt(payload)
	if !ok || len(payload) < n+1 {
		return 0, 0, "", nil, errors.New("dataflow: corrupt contribute header")
	}
	kind = payload[n]
	rest := payload[n+1:]
	nl, w := binary.Uvarint(rest)
	if w <= 0 || uint64(len(rest)-w) < nl {
		return 0, 0, "", nil, errors.New("dataflow: corrupt contribute name")
	}
	name = string(rest[w : w+int(nl)])
	return s, kind, name, rest[w+int(nl):], nil
}

// release payload: uvarint seq, 1-byte status (0 ok, 1 failed), then either a
// blob list (ok) or a wireError document (failed).
const (
	releaseOK     byte = 0
	releaseFailed byte = 1
)

func encodeRelease(seq int, status byte, body []byte) []byte {
	out := make([]byte, 0, binary.MaxVarintLen64+1+len(body))
	out = binary.AppendUvarint(out, uint64(seq))
	out = append(out, status)
	return append(out, body...)
}

func decodeRelease(payload []byte) (seq int, status byte, body []byte, err error) {
	s, n, ok := uvarintAt(payload)
	if !ok || len(payload) < n+1 {
		return 0, 0, nil, errors.New("dataflow: corrupt release header")
	}
	return s, payload[n], payload[n+1:], nil
}
