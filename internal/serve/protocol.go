// Package serve is the library's batch-serving daemon: a long-running
// server that accepts concurrent WHT transform requests over a
// length-prefixed binary protocol (TCP or a unix socket), coalesces
// same-size requests into batches that run through exec.RunBatch, and
// answers from warm per-size schedule caches seeded by wisdom at boot.  A batch takes what is queued when
// it starts, up to Config.MaxLane, so lanes widen with load.
//
// The serving contract is:
//
//   - Every admitted request gets exactly one response; nothing is
//     dropped without one.
//   - Admission is bounded: when a size class's queue is full the
//     request is rejected immediately, with the class's most recent
//     batch time (at least 1µs) as its retry-after hint.
//   - Per-request deadlines are enforced at admission, when a batch
//     forms, and across execution (requests expiring mid-batch get
//     a deadline-miss response, never a stale success).
//   - A kernel fault poisons one batch, not the process: the executor's
//     panic containment (exec.PanicError) turns it into per-request
//     fault responses, and repeated faults walk the size class down a
//     degradation ladder — full tiers, then scalar-pinned kernels, then
//     sequential per-vector execution — trading speed for blast-radius
//     isolation until the class proves healthy again.
//
// # Wire format
//
// Both directions frame messages the same way: a little-endian uint32
// byte length, then a fixed 12-byte header, then an optional float64
// payload.  Request header:
//
//	offset 0  uint8   protocol version (1)
//	offset 1  uint8   op (0 = transform)
//	offset 2  uint8   transform log-size n (payload is 2^n float64s)
//	offset 3  uint8   reserved (0)
//	offset 4  uint32  request id (echoed verbatim in the response)
//	offset 8  uint32  relative deadline in microseconds (0 = none)
//
// Response header mirrors it:
//
//	offset 0  uint8   protocol version (1)
//	offset 1  uint8   status (see Status)
//	offset 2  uint8   transform log-size (echo; 0 when no payload)
//	offset 3  uint8   reserved (0)
//	offset 4  uint32  request id
//	offset 8  uint32  retry-after hint in microseconds (StatusRejected)
//
// A StatusOK response carries the transformed vector as its payload;
// every other status carries none.
package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// ProtocolVersion is the wire version this package speaks.
const ProtocolVersion = 1

// OpTransform is the only request op: transform the payload in place.
const OpTransform = 0

// MaxLogN bounds the transform sizes the server admits: 2^24 float64s
// is a 128 MiB payload, far past any size the engine is tuned for, and
// the bound keeps a malicious length field from asking the server to
// allocate arbitrarily.
const MaxLogN = 24

// headerLen is the fixed header size after the length prefix.
const headerLen = 12

// Status is a response's outcome code.
type Status uint8

const (
	// StatusOK: the payload is the transformed vector.
	StatusOK Status = iota
	// StatusRejected: the size class's queue was full; retry after the
	// hinted backoff.  The backpressure signal.
	StatusRejected
	// StatusDeadline: the request's deadline expired before a result
	// could be returned.
	StatusDeadline
	// StatusFault: a kernel fault was contained while computing the
	// batch holding this request; the vector was not transformed.
	StatusFault
	// StatusBadRequest: the frame was structurally invalid (bad
	// version, op, size, or payload length).
	StatusBadRequest
	// StatusShutdown: the server is stopping and will not compute the
	// request.
	StatusShutdown
)

// String returns the operator-facing spelling of the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusRejected:
		return "rejected"
	case StatusDeadline:
		return "deadline"
	case StatusFault:
		return "fault"
	case StatusBadRequest:
		return "bad-request"
	case StatusShutdown:
		return "shutdown"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// request is one decoded transform request.
type requestFrame struct {
	ID         uint32
	LogN       int
	DeadlineUs uint32
	Data       []float64
}

// responseFrame is one encoded response.
type responseFrame struct {
	ID           uint32
	Status       Status
	LogN         int
	RetryAfterUs uint32
	Data         []float64 // StatusOK only
}

// maxFrameLen bounds any frame this package will read.
const maxFrameLen = headerLen + (8 << MaxLogN)

// readChunk bounds how many payload bytes readFrame allocates ahead of
// their arrival: a peer that announces a maxFrameLen frame and stalls
// pins at most this much, not the announced 128 MiB.
const readChunk = 1 << 20

// readFrame reads one length-prefixed frame (header + raw payload
// bytes) from r.  io.EOF before the first byte means a clean
// end-of-stream; anything partial is an error.  The payload is read in
// pieces of at most readChunk bytes, the slice growing as they arrive,
// so memory follows the bytes a peer has sent, not the length it
// claims.
func readFrame(r io.Reader) (hdr [headerLen]byte, payload []byte, err error) {
	var lenBuf [4]byte
	if _, err = io.ReadFull(r, lenBuf[:]); err != nil {
		return hdr, nil, err
	}
	frameLen := binary.LittleEndian.Uint32(lenBuf[:])
	if frameLen < headerLen || frameLen > maxFrameLen {
		return hdr, nil, fmt.Errorf("serve: frame length %d out of range", frameLen)
	}
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return hdr, nil, fmt.Errorf("serve: short frame header: %w", midFrame(err))
	}
	n := int(frameLen) - headerLen
	if n == 0 {
		return hdr, nil, nil
	}
	payload = make([]byte, 0, min(n, readChunk))
	for len(payload) < n {
		k := min(n-len(payload), readChunk)
		payload = slices.Grow(payload, k)
		if _, err = io.ReadFull(r, payload[len(payload):len(payload)+k]); err != nil {
			return hdr, nil, fmt.Errorf("serve: short frame payload: %w", midFrame(err))
		}
		payload = payload[:len(payload)+k]
	}
	return hdr, payload, nil
}

// midFrame reports an end of stream inside a frame as
// io.ErrUnexpectedEOF, so only a stream that ends on a frame boundary
// reads as a clean io.EOF.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// decodeRequest validates a request frame.  A non-nil error is a
// protocol-level fault the caller should answer with StatusBadRequest
// (when the id could be recovered) or treat as a broken connection.
func decodeRequest(hdr [headerLen]byte, payload []byte) (requestFrame, error) {
	rf := requestFrame{
		ID:         binary.LittleEndian.Uint32(hdr[4:8]),
		LogN:       int(hdr[2]),
		DeadlineUs: binary.LittleEndian.Uint32(hdr[8:12]),
	}
	if hdr[0] != ProtocolVersion {
		return rf, fmt.Errorf("serve: protocol version %d, want %d", hdr[0], ProtocolVersion)
	}
	if hdr[1] != OpTransform {
		return rf, fmt.Errorf("serve: unknown op %d", hdr[1])
	}
	if hdr[3] != 0 {
		return rf, fmt.Errorf("serve: reserved header byte is %d, want 0", hdr[3])
	}
	if rf.LogN < 1 || rf.LogN > MaxLogN {
		return rf, fmt.Errorf("serve: transform log-size %d out of range [1, %d]", rf.LogN, MaxLogN)
	}
	want := 8 << uint(rf.LogN)
	if len(payload) != want {
		return rf, fmt.Errorf("serve: payload is %d bytes, want %d for n=%d", len(payload), want, rf.LogN)
	}
	rf.Data = make([]float64, 1<<uint(rf.LogN))
	for i := range rf.Data {
		rf.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return rf, nil
}

// encodeRequest serializes a request frame (the client side).
func encodeRequest(rf requestFrame) []byte {
	payloadLen := 8 * len(rf.Data)
	buf := make([]byte, 4+headerLen+payloadLen)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(headerLen+payloadLen))
	buf[4] = ProtocolVersion
	buf[5] = OpTransform
	buf[6] = uint8(rf.LogN)
	binary.LittleEndian.PutUint32(buf[8:12], rf.ID)
	binary.LittleEndian.PutUint32(buf[12:16], rf.DeadlineUs)
	for i, v := range rf.Data {
		binary.LittleEndian.PutUint64(buf[16+8*i:], math.Float64bits(v))
	}
	return buf
}

// encodeResponse serializes a response frame (the server side).
func encodeResponse(resp responseFrame) []byte {
	payloadLen := 0
	if resp.Status == StatusOK {
		payloadLen = 8 * len(resp.Data)
	}
	buf := make([]byte, 4+headerLen+payloadLen)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(headerLen+payloadLen))
	buf[4] = ProtocolVersion
	buf[5] = uint8(resp.Status)
	buf[6] = uint8(resp.LogN)
	binary.LittleEndian.PutUint32(buf[8:12], resp.ID)
	binary.LittleEndian.PutUint32(buf[12:16], resp.RetryAfterUs)
	if payloadLen > 0 {
		for i, v := range resp.Data {
			binary.LittleEndian.PutUint64(buf[16+8*i:], math.Float64bits(v))
		}
	}
	return buf
}

// decodeResponse parses a response frame (the client side).
func decodeResponse(hdr [headerLen]byte, payload []byte) (responseFrame, error) {
	if hdr[0] != ProtocolVersion {
		return responseFrame{}, fmt.Errorf("serve: protocol version %d, want %d", hdr[0], ProtocolVersion)
	}
	resp := responseFrame{
		ID:           binary.LittleEndian.Uint32(hdr[4:8]),
		Status:       Status(hdr[1]),
		LogN:         int(hdr[2]),
		RetryAfterUs: binary.LittleEndian.Uint32(hdr[8:12]),
	}
	if resp.Status == StatusOK {
		if len(payload)%8 != 0 {
			return responseFrame{}, fmt.Errorf("serve: ragged payload of %d bytes", len(payload))
		}
		resp.Data = make([]float64, len(payload)/8)
		for i := range resp.Data {
			resp.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
	}
	return resp, nil
}
