// Wire layer of the distributed execution mode (see cluster.go): value
// serialization for records that cross process boundaries, the seeded byte
// hash that replaces maphash for cross-process partitioning, and the framed
// message protocol spoken between the coordinator and its workers.
//
// Record serialization deliberately reuses the spill layer's machinery: a
// keyed shuffle encodes its records with the operator's registered PairCodec
// in exactly the uvarint-framed [klen, key, vlen, val] layout spill files use
// (appendFrame/decodeFrame), so every record type that can spill to disk can
// also cross the network unchanged. Non-pair records (PartitionBy inputs,
// Collect/GlobalReduce values) use the lighter ValueCodec registry below;
// registering a PairCodec automatically derives the matching ValueCodec.
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

// ValueCodec serializes single records of type T for the network. Append
// follows the stdlib append-style contract; Decode receives exactly the bytes
// one Append produced. Encodings need not be canonical (two encodings of one
// value may differ byte-wise) — the wire layer never compares value bytes.
type ValueCodec[T any] interface {
	AppendValue(dst []byte, v T) []byte
	DecodeValue(src []byte) T
}

// ErrCorruptRecord is what a codec's owner reports (Context.Fail) for wire
// bytes its decoder could not accept. The Decode methods cannot return it
// themselves; a decoder answers such bytes with a value its consumer can
// tell from every valid one, and the consumer fails the job.
var ErrCorruptRecord = errors.New("dataflow: corrupt wire record")

// valueCodecs maps reflect.TypeOf(T) to its registered ValueCodec[T].
var valueCodecs sync.Map

// RegisterValueCodec makes codec available to the distributed operators over
// records of type T. Packages register their record types in init; the latest
// registration for a type wins.
func RegisterValueCodec[T any](codec ValueCodec[T]) {
	valueCodecs.Store(reflect.TypeOf((*T)(nil)).Elem(), codec)
}

// valueCodecFor looks up the codec for T.
func valueCodecFor[T any]() (ValueCodec[T], bool) {
	c, ok := valueCodecs.Load(reflect.TypeOf((*T)(nil)).Elem())
	if !ok {
		return nil, false
	}
	codec, ok := c.(ValueCodec[T])
	return codec, ok
}

// pairValueCodec derives a ValueCodec[Pair[K, V]] from a PairCodec, encoding
// each pair as one spill frame. Registered automatically by RegisterPairCodec.
type pairValueCodec[K comparable, V any] struct{ pc PairCodec[K, V] }

func (c pairValueCodec[K, V]) AppendValue(dst []byte, p Pair[K, V]) []byte {
	var scratch []byte
	return appendFrame(dst, c.pc, p.Key, p.Val, &scratch)
}

func (c pairValueCodec[K, V]) DecodeValue(src []byte) Pair[K, V] {
	kb, vb, _, err := decodeFrame(src)
	if err != nil {
		panic(fmt.Sprintf("dataflow: corrupt pair frame on the wire: %v", err))
	}
	return Pair[K, V]{Key: c.pc.DecodeKey(kb), Val: c.pc.DecodeValue(vb)}
}

// Built-in codecs for the scalar record types the engine's own collectives
// produce (partition counts, load sums).
type intValueCodec struct{}

func (intValueCodec) AppendValue(dst []byte, v int) []byte { return binary.AppendVarint(dst, int64(v)) }
func (intValueCodec) DecodeValue(src []byte) int {
	n, _ := binary.Varint(src)
	return int(n)
}

type int64ValueCodec struct{}

func (int64ValueCodec) AppendValue(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }
func (int64ValueCodec) DecodeValue(src []byte) int64 {
	n, _ := binary.Varint(src)
	return n
}

func init() {
	RegisterValueCodec[int](intValueCodec{})
	RegisterValueCodec[int64](int64ValueCodec{})
}

// uint64Codec carries an integer record type T, as a value and as the key of
// a Pair[T, int] count: T in 8 big-endian bytes, whose byte order is T's
// order, the count as a varint. Its decoders cannot fail. Bytes of another
// length decode to the all-ones T and bytes that are no varint to a zero
// count, so a record type keeps both out of its domain, and what consumes the
// records fails the job with ErrCorruptRecord where it meets one.
type uint64Codec[T ~uint64] struct{}

func (uint64Codec[T]) AppendValue(dst []byte, v T) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(v))
}
func (uint64Codec[T]) DecodeValue(src []byte) T {
	if len(src) != 8 {
		return ^T(0)
	}
	return T(binary.BigEndian.Uint64(src))
}

type uint64CountCodec[T ~uint64] struct{ uint64Codec[T] }

func (c uint64CountCodec[T]) AppendKey(dst []byte, k T) []byte {
	return c.uint64Codec.AppendValue(dst, k)
}
func (c uint64CountCodec[T]) DecodeKey(src []byte) T { return c.uint64Codec.DecodeValue(src) }
func (uint64CountCodec[T]) AppendValue(dst []byte, n int) []byte {
	return binary.AppendVarint(dst, int64(n))
}
func (uint64CountCodec[T]) DecodeValue(src []byte) int {
	n, w := binary.Varint(src)
	if w != len(src) {
		return 0
	}
	return int(n)
}

// RegisterUint64Record registers the codecs of an integer record type: T as
// a value (PartitionBy, Collect) and Pair[T, int] as a keyed count
// (ReduceByKey, spilled or across processes). See uint64Codec for what their
// decoders make of malformed bytes.
func RegisterUint64Record[T interface {
	~uint64
	comparable
}]() {
	RegisterValueCodec[T](uint64Codec[T]{})
	RegisterPairCodec[T, int](uint64CountCodec[T]{})
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

// splitBlobs parses a blob list. The returned slices alias src.
func splitBlobs(src []byte) ([][]byte, error) {
	var out [][]byte
	for len(src) > 0 {
		n, w := binary.Uvarint(src)
		if w <= 0 || uint64(len(src)-w) < n {
			return nil, errors.New("dataflow: corrupt wire blob list")
		}
		out = append(out, src[w:w+int(n)])
		src = src[w+int(n):]
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
