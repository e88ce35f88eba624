package client_test

import (
	"bytes"
	"testing"

	"crfs/internal/client"
	"crfs/internal/core"
)

// BenchmarkPutGet moves one 4 MiB object — the striped store's default
// chunk — to a loopback crfsd on memfs and back: a PUT, then a GET into
// a reused buffer. The mount's default 4 MiB chunk makes the backend
// cost one write per PUT, so the figures are the wire path's: framing,
// payload buffers and the demux. SetBytes counts both directions.
func BenchmarkPutGet(b *testing.B) {
	const size = 4 << 20
	addr := startServerWith(b, core.Options{})
	c, err := client.Dial(addr, client.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	body := make([]byte, size)
	for i := range body {
		body[i] = byte(i * 7)
	}
	var got bytes.Buffer
	got.Grow(size)
	b.SetBytes(2 * size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Put("obj", bytes.NewReader(body), size); err != nil {
			b.Fatal(err)
		}
		got.Reset()
		if _, err := c.Get("obj", &got); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if !bytes.Equal(got.Bytes(), body) {
		b.Fatal("GET returned different bytes than the PUT sent")
	}
}
