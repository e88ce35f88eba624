package codec

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// legacyFixture is a frozen v2 deflate container written by the original
// level-6 (flate.DefaultCompression) encoder. The golden payloads are too
// small to tell encoder levels apart, so this fixture is the one that
// holds the multi-block, dynamic-Huffman streams real checkpoints left on
// disk before the writer moved to flate.BestSpeed. No test regenerates it:
// today's encoder writes different bytes, which is the point.
const legacyFixture = "testdata/legacy/deflate-l6-v2.crfc"

// legacyExtents is the fixture's write history: text, then pages, then
// an overwrite inside the text extent, one frame each.
func legacyExtents() []struct {
	off  int64
	data []byte
} {
	return []struct {
		off  int64
		data []byte
	}{
		ext(0, wordText(192<<10, 1)),
		ext(192<<10, halfZeroPages(128<<10, 2)),
		ext(64<<10, wordText(32<<10, 3)),
	}
}

func legacyContent() []byte {
	img := make([]byte, 320<<10)
	for _, e := range legacyExtents() {
		copy(img[e.off:], e.data)
	}
	return img
}

func TestLegacyLevel6Container(t *testing.T) {
	box, err := os.ReadFile(filepath.FromSlash(legacyFixture))
	if err != nil {
		t.Fatal(err)
	}
	want := legacyContent()
	r := bytes.NewReader(box)
	frames, intact, stopErr := ScanPrefix(r, int64(len(box)))
	if stopErr != nil || intact != int64(len(box)) {
		t.Fatalf("strict scan: intact=%d err=%v", intact, stopErr)
	}
	if len(frames) != len(legacyExtents()) {
		t.Fatalf("scanned %d frames, want %d", len(frames), len(legacyExtents()))
	}
	for _, fr := range frames {
		if fr.Header.Version != Version2 || fr.Header.Codec != DeflateID {
			t.Fatalf("frame at %d is v%d codec %d, want v2 deflate", fr.Pos, fr.Header.Version, fr.Header.Codec)
		}
		// The first block of each stream is a non-final dynamic-Huffman
		// block: the fixture really holds the multi-block streams it
		// exists to keep readable.
		if b := box[fr.Pos+HeaderSize]; b&1 != 0 || (b>>1)&3 != 2 {
			t.Fatalf("frame at %d starts with block header %#x, want non-final dynamic Huffman", fr.Pos, b)
		}
	}
	if got := replayFrames(t, r, frames); !bytes.Equal(got, want) {
		t.Fatal("strict scan replay differs from the expected content")
	}
	sframes, rep, err := Salvage(r, int64(len(box)))
	if err != nil || !rep.Clean() || len(sframes) != len(frames) {
		t.Fatalf("salvage: report=%+v err=%v frames=%d/%d", rep, err, len(sframes), len(frames))
	}
	if rep.ChecksumVerified != len(frames) || rep.ChecksumFailures != 0 {
		t.Fatalf("salvage verified %d checksums with %d failures, want %d and 0",
			rep.ChecksumVerified, rep.ChecksumFailures, len(frames))
	}
	if got := replayFrames(t, r, sframes); !bytes.Equal(got, want) {
		t.Fatal("salvage replay differs from the expected content")
	}
}
