package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// A peer that announces a maximum-length frame, sends its header and
// stalls must not make readFrame allocate the announced payload: the
// reader fails every read after the header, as a connection does when
// its read deadline fires.
func TestReadFrameStalledPeerBoundsAllocation(t *testing.T) {
	frame := make([]byte, 4+headerLen)
	binary.LittleEndian.PutUint32(frame[0:4], maxFrameLen)
	frame[4] = ProtocolVersion
	frame[5] = OpTransform
	frame[6] = MaxLogN
	r := bytesReader(frame)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(r)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("stalled frame read without error")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Fatalf("a stalled %d-byte frame allocated %d bytes, want < 2 MiB", maxFrameLen, got)
	}
}

// FuzzServeFrame reads request frames off arbitrary bytes the way a
// server connection does: frame by frame, answering a frame that fails
// to decode and reading on.  No input may panic; a frame that decodes
// re-encodes byte for byte through encodeRequest; and every stream
// ends in an error, io.EOF exactly when it was consumed to its last
// byte on a frame boundary.
func FuzzServeFrame(f *testing.F) {
	f.Add(encodeRequest(requestFrame{ID: 1, LogN: 3, Data: make([]float64, 8)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			start := len(data) - r.Len()
			hdr, payload, err := readFrame(r)
			if err != nil {
				if errors.Is(err, io.EOF) != (start == len(data)) {
					t.Fatalf("stream ended with %v at byte %d of %d", err, start, len(data))
				}
				return
			}
			rf, err := decodeRequest(hdr, payload)
			if err != nil {
				continue
			}
			if raw := data[start : len(data)-r.Len()]; !bytes.Equal(encodeRequest(rf), raw) {
				t.Fatalf("frame at byte %d decodes to %+v but re-encodes differently", start, rf)
			}
		}
	})
}
