package codec

import (
	"fmt"
	"testing"
)

// Frame encode/decode microbenchmarks at the default chunk size (4 MiB,
// one IO worker's unit of work), split by codec, payload shape and frame
// version. Each reports throughput over the raw payload and the frame's
// compression ratio (raw bytes per stored byte, header included). The
// v1-vs-v2 delta is the isolated cost of the CRC32-C over the
// uncompressed payload. EXPERIMENTS.md's codec table comes from these:
//
//	go test ./internal/codec -run '^$' -bench Frame

const benchChunk = 4 << 20

// xorshift32 is a fixed pseudo-random stream, so generated payloads are
// reproducible without depending on any library generator's sequence.
// The frozen legacy fixture's content is built from it: never change it.
type xorshift32 uint32

func (r *xorshift32) next() uint32 {
	x := uint32(*r)
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	*r = xorshift32(x)
	return x
}

// wordText builds n bytes of word salad: compressible the way source code
// and logs are, so DEFLATE emits dynamic-Huffman blocks.
func wordText(n int, seed uint32) []byte {
	words := []string{"checkpoint", "restart", "rank", "chunk", "pool", "frame",
		"write", "read", "buffer", "aggregate", "flush", "worker", "queue",
		"image", "page", "offset", "\n", "(", ")", "{", "}", ";", "=", "0x1f"}
	r := xorshift32(seed)
	out := make([]byte, 0, n+16)
	for len(out) < n {
		out = append(out, words[r.next()%uint32(len(words))]...)
		out = append(out, ' ')
	}
	return out[:n]
}

// halfZeroPages builds n bytes of 4 KiB pages whose first half is zero and
// whose second half is random: the shape of a process image with sparse
// heap pages, and of the benchmark's restart-deflate images.
func halfZeroPages(n int, seed uint32) []byte {
	r := xorshift32(seed)
	out := make([]byte, n)
	for i := range out {
		if i%4096 >= 2048 {
			out[i] = byte(r.next())
		}
	}
	return out
}

// randomBytes builds n incompressible bytes: every deflate frame of it
// takes the raw bailout.
func randomBytes(n int, seed uint32) []byte {
	r := xorshift32(seed)
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(r.next())
	}
	return out
}

var benchShapes = []struct {
	name string
	gen  func(n int, seed uint32) []byte
}{
	{"halfzero", halfZeroPages},
	{"random", randomBytes},
	{"text", wordText},
}

// forEachFrameBench runs fn as one sub-benchmark per codec, shape and
// frame version, with the shape's payload and its encoded frame.
func forEachFrameBench(b *testing.B, fn func(b *testing.B, c Codec, ver uint8, payload, frame []byte, hdr Header)) {
	for _, c := range []Codec{Raw(), Deflate()} {
		for _, shape := range benchShapes {
			payload := shape.gen(benchChunk, 1)
			for _, ver := range []uint8{Version1, Version2} {
				frame, hdr, err := EncodeFrameVersion(c, ver, 0, 0, payload, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.Run(fmt.Sprintf("%s/%s/v%d", c.Name(), shape.name, ver), func(b *testing.B) {
					b.SetBytes(int64(len(payload)))
					b.ReportAllocs()
					fn(b, c, ver, payload, frame, hdr)
					b.ReportMetric(float64(len(payload))/float64(len(frame)), "ratio")
				})
			}
		}
	}
}

func BenchmarkEncodeFrame(b *testing.B) {
	forEachFrameBench(b, func(b *testing.B, c Codec, ver uint8, payload, frame []byte, _ Header) {
		buf := make([]byte, 0, len(payload)+HeaderSize) // the mount's pooled encode buffer
		for i := 0; i < b.N; i++ {
			var err error
			buf, _, err = EncodeFrameVersion(c, ver, uint64(i), 0, payload, buf[:0])
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecodeFrame decodes into a nil dst, as the mount's read and
// read-ahead paths do, so the output allocation is part of the cost.
func BenchmarkDecodeFrame(b *testing.B) {
	forEachFrameBench(b, func(b *testing.B, _ Codec, _ uint8, _, frame []byte, hdr Header) {
		for i := 0; i < b.N; i++ {
			if _, err := DecodeFrame(hdr, frame[HeaderSize:], nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
