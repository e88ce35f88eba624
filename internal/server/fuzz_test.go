package server_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"crfs/internal/server"
)

// FuzzReadFrame feeds arbitrary bytes to the frame reader, the first
// code every byte from a peer reaches. It must never panic, return a
// payload exactly as long as the header says (and within
// MaxFramePayload), re-encode through WriteFrame to exactly the bytes it
// consumed, and report every header violation as ErrProtocol.
// The checked-in corpus (testdata/fuzz/FuzzReadFrame) holds valid data,
// request and end frames, an oversize length, nonzero reserved bytes, an
// unknown type and a truncated payload.
func FuzzReadFrame(f *testing.F) {
	f.Add(frameBytes(server.FrameData, 3, []byte("body bytes")))
	f.Add(frameBytes(server.FrameReq, 1, []byte("GET ckpt")))
	f.Add(frameBytes(server.FrameEnd, 9, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, payload, err := server.ReadFrame(bytes.NewReader(data))
		defer server.PutPayload(payload)
		if len(data) >= server.HeaderLen {
			bad := data[0] < server.FrameHello || data[0] > server.FrameErr ||
				data[1] != 0 || data[2] != 0 || data[3] != 0 ||
				binary.BigEndian.Uint32(data[8:]) > server.MaxFramePayload
			if bad != errors.Is(err, server.ErrProtocol) {
				t.Fatalf("header % x: header violation %v, but err = %v", data[:server.HeaderLen], bad, err)
			}
		} else if errors.Is(err, server.ErrProtocol) {
			t.Fatalf("short header reported as a protocol violation: %v", err)
		}
		if err != nil {
			return
		}
		if uint32(len(payload)) != hdr.Len || hdr.Len > server.MaxFramePayload {
			t.Fatalf("payload %d bytes, header says %d (cap %d)", len(payload), hdr.Len, server.MaxFramePayload)
		}
		var out bytes.Buffer
		if err := server.WriteFrame(&out, hdr.Type, hdr.ReqID, payload); err != nil {
			t.Fatal(err)
		}
		if consumed := data[:server.HeaderLen+len(payload)]; !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("re-encoded frame % x, consumed % x", out.Bytes(), consumed)
		}
	})
}

func frameBytes(typ uint8, id uint32, payload []byte) []byte {
	var b bytes.Buffer
	server.WriteFrame(&b, typ, id, payload)
	return b.Bytes()
}
