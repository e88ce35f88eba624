package server_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

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

// FuzzServeConn feeds arbitrary bytes to a served connection, the only
// way input reaches the daemon: the hello line, then frames. Whatever the
// bytes, the server must not panic, must close the connection once the
// client has sent everything, and must leave no PUT staging temp behind.
// The checked-in corpus (testdata/fuzz/FuzzServeConn) holds a valid
// hello + PUT + end session, a bare line request without the hello, a
// truncated frame header and a frame declaring a payload over the cap.
func FuzzServeConn(f *testing.F) {
	e := newEnv(f, nil, server.Config{})
	f.Fuzz(func(t *testing.T, data []byte) {
		nc, err := net.DialTimeout("tcp", e.addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(10 * time.Second))
		// The server may hang up before it has read every byte; a failed
		// write is then expected.
		nc.Write(data)
		nc.(*net.TCPConn).CloseWrite()
		if _, err := io.Copy(io.Discard, nc); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("server left the connection open after the client finished")
			}
		}
		// Handlers finish (and abort their staging temps) before the
		// connection stops counting as active.
		deadline := time.Now().Add(10 * time.Second)
		for e.srv.Stats().ConnsActive != 0 {
			if time.Now().After(deadline) {
				t.Fatal("connection handler never finished")
			}
			time.Sleep(time.Millisecond)
		}
		if s := findStaging(t, e.fs, "."); s != "" {
			t.Fatalf("staging temp %q survived the connection", s)
		}
	})
}

func frameBytes(typ uint8, id uint32, payload []byte) []byte {
	var b bytes.Buffer
	server.WriteFrame(&b, typ, id, payload)
	return b.Bytes()
}
