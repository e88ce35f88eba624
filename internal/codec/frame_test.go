package codec

import (
	"bytes"
	"compress/flate"
	"encoding/hex"
	"errors"
	"io"
	"runtime"
	"testing"
)

// TestHeaderGoldenBytes pins the on-disk v1 frame header layout. If this
// test breaks, existing containers become unreadable: bump Version and
// add migration instead of editing the expectation.
func TestHeaderGoldenBytes(t *testing.T) {
	h := Header{
		Version: Version1,
		Codec:   DeflateID,           // 0x01
		Seq:     0x00234567_89abcdef, // within MaxSeq
		Off:     0x0007060504030201,  // within MaxLogicalOff
		RawLen:  0xaabbccdd,
		EncLen:  0x11223344,
	}
	b := make([]byte, HeaderSize)
	PutHeader(b, h)
	want := "" +
		"43524643" + // magic "CRFC"
		"01" + // version 1
		"01" + // codec id: deflate
		"0000" + // reserved
		"efcdab8967452300" + // seq, little-endian
		"0102030405060700" + // logical offset, little-endian
		"ddccbbaa" + // raw length, little-endian
		"44332211" // encoded length, little-endian
	if got := hex.EncodeToString(b); got != want {
		t.Fatalf("header layout changed:\n got %s\nwant %s", got, want)
	}
	back, err := ParseHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatalf("ParseHeader(PutHeader(h)) = %+v, want %+v", back, h)
	}
}

// TestHeaderGoldenBytesV2 pins the v2 layout the same way: the sequence
// number narrows to 32 bits and the freed 4 bytes carry the payload
// CRC32-C. Offset, raw length, and encoded length keep their v1 byte
// offsets.
func TestHeaderGoldenBytesV2(t *testing.T) {
	h := Header{
		Version:  Version2,
		Codec:    DeflateID,          // 0x01
		Seq:      0x89abcdef,         // within MaxSeqV2
		Checksum: 0x67452301,         // payload CRC32-C
		Off:      0x0007060504030201, // within MaxLogicalOff
		RawLen:   0xaabbccdd,
		EncLen:   0x11223344,
	}
	b := make([]byte, HeaderSize)
	PutHeader(b, h)
	want := "" +
		"43524643" + // magic "CRFC"
		"02" + // version 2
		"01" + // codec id: deflate
		"0000" + // reserved
		"efcdab89" + // seq (u32), little-endian
		"01234567" + // payload crc32c, little-endian
		"0102030405060700" + // logical offset, little-endian
		"ddccbbaa" + // raw length, little-endian
		"44332211" // encoded length, little-endian
	if got := hex.EncodeToString(b); got != want {
		t.Fatalf("v2 header layout changed:\n got %s\nwant %s", got, want)
	}
	back, err := ParseHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatalf("ParseHeader(PutHeader(h)) = %+v, want %+v", back, h)
	}
	// The zero Version serializes as the current version (v2).
	cur := h
	cur.Version = 0
	PutHeader(b, cur)
	if b[4] != Version {
		t.Fatalf("zero Version serialized as %d, want %d", b[4], Version)
	}
}

func TestParseHeaderRejects(t *testing.T) {
	b := make([]byte, HeaderSize)
	PutHeader(b, Header{Codec: RawID})
	short := b[:HeaderSize-1]
	if _, err := ParseHeader(short); !errors.Is(err, ErrNotFramed) {
		t.Errorf("short header: %v, want ErrNotFramed", err)
	}
	bad := bytes.Clone(b)
	bad[0] = 'X'
	if _, err := ParseHeader(bad); !errors.Is(err, ErrNotFramed) {
		t.Errorf("bad magic: %v, want ErrNotFramed", err)
	}
	if Sniff(bad) {
		t.Error("Sniff accepted bad magic")
	}
	ver := bytes.Clone(b)
	ver[4] = 99
	if _, err := ParseHeader(ver); !errors.Is(err, ErrCorrupt) {
		t.Errorf("future version: %v, want ErrCorrupt", err)
	}
	huge := make([]byte, HeaderSize)
	PutHeader(huge, Header{Codec: RawID, Off: 1 << 62})
	if _, err := ParseHeader(huge); !errors.Is(err, ErrCorrupt) {
		t.Errorf("implausible offset: %v, want ErrCorrupt", err)
	}
	// Sequence numbers near MaxUint64 would overflow the container
	// scanner's nextSeq computation to zero (fuzz-found); they are as
	// implausible as a 2^62 offset and must be rejected the same way.
	// Only v1 headers can carry one — the v2 field is 32 bits wide.
	overSeq := make([]byte, HeaderSize)
	PutHeader(overSeq, Header{Version: Version1, Codec: RawID, Seq: ^uint64(0)})
	if _, err := ParseHeader(overSeq); !errors.Is(err, ErrCorrupt) {
		t.Errorf("implausible seq: %v, want ErrCorrupt", err)
	}
	// Version 3 from the future must be rejected, not misread under
	// today's layout.
	v3 := bytes.Clone(b)
	v3[4] = 3
	if _, err := ParseHeader(v3); !errors.Is(err, ErrCorrupt) {
		t.Errorf("v3 header: %v, want ErrCorrupt", err)
	}
}

// TestEncodeFrameVersionBounds pins the per-version encode guards: only
// versions 1 and 2 encode, and the v2 sequence bound is 2^32-1.
func TestEncodeFrameVersionBounds(t *testing.T) {
	if _, _, err := EncodeFrameVersion(Raw(), 3, 0, 0, nil, nil); err == nil {
		t.Error("encoded a version-3 frame")
	}
	if _, _, err := EncodeFrameVersion(Raw(), 0, 0, 0, nil, nil); err == nil {
		t.Error("encoded a version-0 frame")
	}
	if _, _, err := EncodeFrameVersion(Raw(), Version2, MaxSeqV2+1, 0, nil, nil); err == nil {
		t.Error("v2 frame accepted a sequence past MaxSeqV2")
	}
	if _, _, err := EncodeFrameVersion(Raw(), Version1, MaxSeqV2+1, 0, nil, nil); err != nil {
		t.Errorf("v1 frame rejected a legal sequence: %v", err)
	}
}

// TestEncodeFrameRoundTrip round-trips whole frames for both codecs and
// both data shapes.
func TestEncodeFrameRoundTrip(t *testing.T) {
	for _, name := range Names() {
		c, _ := Lookup(name)
		for shape, src := range map[string][]byte{
			"compressible":   compressible(300<<10, 3),
			"incompressible": incompressible(300<<10, 4),
			"empty":          {},
		} {
			frame, h, err := EncodeFrame(c, 7, 12345, src, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, shape, err)
			}
			if h.Seq != 7 || h.Off != 12345 || int(h.RawLen) != len(src) {
				t.Fatalf("%s/%s: header %+v", name, shape, h)
			}
			if len(frame) != HeaderSize+int(h.EncLen) {
				t.Fatalf("%s/%s: frame length %d, header says %d", name, shape, len(frame), HeaderSize+int(h.EncLen))
			}
			parsed, err := ParseHeader(frame)
			if err != nil || parsed != h {
				t.Fatalf("%s/%s: reparse %+v, %v", name, shape, parsed, err)
			}
			dec, err := DecodeFrame(h, frame[HeaderSize:], nil)
			if err != nil {
				t.Fatalf("%s/%s: decode: %v", name, shape, err)
			}
			if !bytes.Equal(dec, src) {
				t.Fatalf("%s/%s: frame round trip differs", name, shape)
			}
		}
	}
}

// TestEncodeFrameIncompressibleBailout checks the raw fallback: random
// data must be stored verbatim under RawID, so a frame never costs more
// than the payload plus the fixed header.
func TestEncodeFrameIncompressibleBailout(t *testing.T) {
	src := incompressible(256<<10, 9)
	frame, h, err := EncodeFrame(Deflate(), 0, 0, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.Codec != RawID {
		t.Fatalf("incompressible frame stored with codec %d, want raw bailout", h.Codec)
	}
	if int(h.EncLen) != len(src) || !bytes.Equal(frame[HeaderSize:], src) {
		t.Fatal("raw bailout did not store payload verbatim")
	}
	comp := compressible(256<<10, 9)
	_, h2, err := EncodeFrame(Deflate(), 0, 0, comp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Codec != DeflateID || int(h2.EncLen) >= len(comp) {
		t.Fatalf("compressible frame: codec=%d enc=%d raw=%d", h2.Codec, h2.EncLen, len(comp))
	}
}

func TestDecodeFrameRejectsCorrupt(t *testing.T) {
	src := compressible(8<<10, 1)
	frame, h, err := EncodeFrame(Deflate(), 0, 0, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFrame(h, frame[HeaderSize:len(frame)-1], nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated payload: %v, want ErrCorrupt", err)
	}
	bad := h
	bad.RawLen++
	if _, err := DecodeFrame(bad, frame[HeaderSize:], nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("raw length mismatch: %v, want ErrCorrupt", err)
	}
	unknown := h
	unknown.Codec = 200
	if _, err := DecodeFrame(unknown, frame[HeaderSize:], nil); err == nil {
		t.Error("unknown codec id decoded")
	}
}

// TestDecodeBoundedByRawLen: a frame whose header understates the
// decoded size must fail fast instead of inflating the whole (possibly
// enormous) stream into memory first.
func TestDecodeBoundedByRawLen(t *testing.T) {
	// 1 MB of zeros deflates to ~1 KB; lie that it decodes to 64 bytes.
	src := make([]byte, 1<<20)
	enc, err := Deflate().Encode(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	lying := Header{Codec: DeflateID, RawLen: 64, EncLen: uint32(len(enc))}
	out, err := DecodeFrame(lying, enc, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("understated RawLen: %v, want ErrCorrupt", err)
	}
	if len(out) > 65 {
		t.Fatalf("decode buffered %d bytes despite 64-byte bound", len(out))
	}
	if _, err := Raw().Decode(nil, make([]byte, 100), 64); !errors.Is(err, ErrCorrupt) {
		t.Errorf("raw oversize payload: %v, want ErrCorrupt", err)
	}
}

// TestDeflateDecodeErrorsAreCorrupt: every way a deflate payload can be
// malformed surfaces as ErrCorrupt, so a read through a mount can tell
// damage from an IO failure with errors.Is alone.
func TestDeflateDecodeErrorsAreCorrupt(t *testing.T) {
	src := compressible(64<<10, 3)
	enc, err := Deflate().Encode(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	short, err := Deflate().Encode(nil, src[:1000])
	if err != nil {
		t.Fatal(err)
	}
	var corruptInput flate.CorruptInputError
	for _, tc := range []struct {
		name    string
		payload []byte
		rawLen  int
		cause   func(error) bool
	}{
		{"truncated stream", enc[:len(enc)/2], len(src),
			func(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) }},
		{"reserved block type", []byte{0x07}, 16,
			func(err error) bool { return errors.As(err, &corruptInput) }},
		{"stream ends before declared size", short, len(src),
			func(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := Header{Version: Version2, Codec: DeflateID, RawLen: uint32(tc.rawLen), EncLen: uint32(len(tc.payload))}
			out, err := DecodeFrame(h, tc.payload, nil)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeFrame: %v, want ErrCorrupt", err)
			}
			if !tc.cause(err) {
				t.Fatalf("DecodeFrame: %v lost the inflate cause", err)
			}
			if len(out) != 0 {
				t.Fatalf("failed decode returned %d bytes", len(out))
			}
		})
	}
}

// lyingDeflateFrame is a v2 deflate frame whose header claims rawLen
// bytes over a payload of under 100 bytes. At MaxPayload, sizing the
// output by RawLen alone would turn it into a 4 GiB allocation.
func lyingDeflateFrame(t testing.TB, rawLen uint32) []byte {
	t.Helper()
	enc, err := Deflate().Encode(nil, make([]byte, 64<<10))
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) > 100 {
		t.Fatalf("zero page deflated to %d bytes, want at most 100", len(enc))
	}
	frame := make([]byte, HeaderSize, HeaderSize+len(enc))
	PutHeader(frame, Header{Version: Version2, Codec: DeflateID, RawLen: rawLen, EncLen: uint32(len(enc))})
	return append(frame, enc...)
}

func TestDecodeFrameBoundedAllocation(t *testing.T) {
	// The 64 MiB claim goes first, so a decoder that trusts RawLen fails
	// here instead of attempting the 4 GiB allocation.
	for _, rawLen := range []uint32{64 << 20, MaxPayload} {
		frame := lyingDeflateFrame(t, rawLen)
		h, err := ParseHeader(frame)
		if err != nil {
			t.Fatal(err)
		}
		decode := func() {
			if _, err := DecodeFrame(h, frame[HeaderSize:], nil); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("RawLen %d: DecodeFrame: %v, want ErrCorrupt", rawLen, err)
			}
		}
		decode() // warm the pooled inflater
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decode()
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("rejecting a %d-byte frame claiming %d bytes allocated %d bytes", len(frame), rawLen, alloc)
		}
	}
}

// TestDeflateDecodeAcceptsMaximalExpansion: the expansion bound that
// rejects lying headers must never reject a real stream. All-zero input
// at flate.BestCompression comes close to DEFLATE's 1032:1 ceiling.
func TestDeflateDecodeAcceptsMaximalExpansion(t *testing.T) {
	raw := make([]byte, 16<<20)
	var enc bytes.Buffer
	w, err := flate.NewWriter(&enc, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if ratio := len(raw) / enc.Len(); ratio < 1000 {
		t.Fatalf("zeros deflated only %d:1, the test needs a near-maximal stream", ratio)
	}
	out, err := Deflate().Decode(nil, enc.Bytes(), int64(len(raw)))
	if err != nil || !bytes.Equal(out, raw) {
		t.Fatalf("near-maximal expansion stream: err=%v, %d bytes", err, len(out))
	}
}
