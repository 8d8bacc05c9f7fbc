package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Request{ID: 7, Op: OpSet, OID: 42, Slot: 3, Dst: 99}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out Request
	if err := ReadFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestReadFrameRejectsHostileLength(t *testing.T) {
	// A 4 GiB declared length must be refused before any allocation.
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	var out Request
	err := ReadFrame(&buf, &out)
	if err == nil {
		t.Fatal("hostile length prefix accepted")
	}
	if !IsMalformed(err) {
		t.Fatalf("hostile length classified as %v, want malformed", err)
	}
}

func TestReadFrameRejectsZeroLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0})
	var out Request
	if err := ReadFrame(&buf, &out); !IsMalformed(err) {
		t.Fatalf("zero-length frame: got %v, want malformed", err)
	}
}

func TestReadFrameRejectsBadJSON(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("{not json")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	buf.Write(hdr[:])
	buf.Write(payload)
	var out Request
	err := ReadFrame(&buf, &out)
	if !IsMalformed(err) {
		t.Fatalf("bad JSON: got %v, want malformed", err)
	}
}

func TestReadFrameTruncatedIsNotMalformed(t *testing.T) {
	// A clean disconnect mid-frame is an I/O condition, not a protocol
	// violation: the session layer must not count it as hostile.
	var full bytes.Buffer
	if err := WriteFrame(&full, Request{ID: 1, Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	half := full.Bytes()[:full.Len()-3]
	var out Request
	err := ReadFrame(bytes.NewReader(half), &out)
	if err == nil {
		t.Fatal("truncated frame accepted")
	}
	if IsMalformed(err) {
		t.Fatalf("truncation classified as malformed: %v", err)
	}
	if err != io.ErrUnexpectedEOF {
		t.Logf("truncation surfaced as %v", err) // informational; exact error is the stdlib's
	}
}

func TestWriteFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	big := Response{Error: strings.Repeat("x", MaxFrameBytes)}
	if err := WriteFrame(&buf, big); err == nil {
		t.Fatal("oversized frame written")
	}
	if buf.Len() != 0 {
		t.Fatalf("oversize rejection leaked %d bytes onto the wire", buf.Len())
	}
}

// FuzzFrame reads arbitrary bytes as a stream of frames through the same
// kind of buffered reader a session uses, until the stream errors. It must
// never panic, must fail only as malformed or as a (possibly mid-frame)
// EOF, must never accept a declared length outside (0, MaxFrameBytes], and
// every frame it accepts must survive a WriteFrame/ReadFrame round trip.
func FuzzFrame(f *testing.F) {
	seeds := []Request{
		{ID: 1, Op: OpPing},
		{ID: 7, Op: OpSet, OID: 42, Slot: 3, Dst: 99},
		{ID: 1 << 40, Op: OpCreate, Size: 256, Slots: 4},
	}
	for _, in := range seeds {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, in); err != nil {
			f.Fatal(err)
		}
		wire := buf.Bytes()
		var out Request
		if err := ReadFrame(bufio.NewReader(bytes.NewReader(wire)), &out); err != nil || out != in {
			f.Fatalf("seed %+v decoded as %+v, %v", in, out, err)
		}
		f.Add(wire)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReaderSize(bytes.NewReader(data), connBufBytes)
		rest := data
		for {
			var req Request
			err := ReadFrame(br, &req)
			if err != nil {
				if !IsMalformed(err) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			n := binary.BigEndian.Uint32(rest)
			if n == 0 || n > MaxFrameBytes {
				t.Fatalf("accepted a frame declaring %d bytes", n)
			}
			rest = rest[4+n:]
			var buf bytes.Buffer
			if err := WriteFrame(&buf, req); err != nil {
				t.Fatalf("re-encoding %+v: %v", req, err)
			}
			var again Request
			if err := ReadFrame(&buf, &again); err != nil || again != req {
				t.Fatalf("round trip of %+v gave %+v, %v", req, again, err)
			}
		}
	})
}
