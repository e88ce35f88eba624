package codec

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"slices"
	"sync"
)

// deflateCodec compresses chunks with stdlib DEFLATE at flate.BestSpeed:
// an IO worker's encode sits on the checkpoint's critical path, and on
// checkpoint-like pages the default level encoded ~3x slower for ~2%
// more ratio (DESIGN.md, "DEFLATE at BestSpeed"). Every level inflates
// the same way, so containers written at any level stay readable.
// Encoder and decoder state is pooled: flate allocates ~64 KB of window
// per writer, far too much to rebuild for every 4 MB chunk crossing the
// IO workers.
type deflateCodec struct {
	writers sync.Pool // *flate.Writer
	readers sync.Pool // io.Reader with flate.Resetter
}

func newDeflate() *deflateCodec { return &deflateCodec{} }

// Deflate returns the DEFLATE codec.
func Deflate() Codec { return mustByID(DeflateID) }

func mustByID(id ID) Codec {
	c, err := ByID(id)
	if err != nil {
		panic(err)
	}
	return c
}

func (*deflateCodec) ID() ID       { return DeflateID }
func (*deflateCodec) Name() string { return "deflate" }

// sliceWriter appends to a byte slice through the io.Writer interface,
// letting pooled flate writers emit straight into the caller's buffer.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

func (c *deflateCodec) Encode(dst, src []byte) ([]byte, error) {
	sw := &sliceWriter{b: dst}
	var fw *flate.Writer
	if v := c.writers.Get(); v != nil {
		fw = v.(*flate.Writer)
		fw.Reset(sw)
	} else {
		var err error
		fw, err = flate.NewWriter(sw, flate.BestSpeed)
		if err != nil {
			return dst, fmt.Errorf("codec: deflate init: %w", err)
		}
	}
	defer c.writers.Put(fw)
	if _, err := fw.Write(src); err != nil {
		return dst, fmt.Errorf("codec: deflate encode: %w", err)
	}
	if err := fw.Close(); err != nil {
		return dst, fmt.Errorf("codec: deflate flush: %w", err)
	}
	return sw.b, nil
}

// maxInflate is DEFLATE's largest expansion per encoded byte: a 258-byte
// match costs at least 2 bits (one length code, one distance code).
const maxInflate = 1032

func (c *deflateCodec) Decode(dst, src []byte, rawLen int64) ([]byte, error) {
	// A header's RawLen is untrusted: reject a size the payload cannot
	// inflate to before sizing anything by it, so a 40-byte frame that
	// claims 4 GiB costs no allocation.
	if rawLen > maxInflate*int64(len(src)) {
		return dst, fmt.Errorf("%w: %d deflate bytes cannot inflate to declared size %d", ErrCorrupt, len(src), rawLen)
	}
	br := bytes.NewReader(src)
	var fr io.Reader
	if v := c.readers.Get(); v != nil {
		fr = v.(io.Reader)
		if err := fr.(flate.Resetter).Reset(br, nil); err != nil {
			return dst, fmt.Errorf("codec: deflate reset: %w", err)
		}
	} else {
		fr = flate.NewReader(br)
	}
	defer c.readers.Put(fr)
	base := len(dst)
	dst = slices.Grow(dst, int(rawLen))[:base+int(rawLen)]
	// Inflate straight into dst, then require the stream to end exactly
	// there: one byte past the declared size is corrupt. src is in
	// memory, so every inflate error (flate.CorruptInputError, a stream
	// that stops early) is a malformed payload.
	if _, err := io.ReadFull(fr, dst[base:]); err != nil {
		return dst[:base], fmt.Errorf("%w: deflate: %w", ErrCorrupt, err)
	}
	var extra [1]byte
	if n, err := io.ReadFull(fr, extra[:]); n > 0 {
		return dst[:base], fmt.Errorf("%w: deflate stream exceeds declared size %d", ErrCorrupt, rawLen)
	} else if err != io.EOF {
		return dst[:base], fmt.Errorf("%w: deflate: %w", ErrCorrupt, err)
	}
	return dst, nil
}
