package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

// TestSerializeRoundTripProperty checks that writing a trace and decoding
// it reproduces exactly the instruction sequence a fresh Stream generates,
// across random archetypes, seeds, and lengths.
func TestSerializeRoundTripProperty(t *testing.T) {
	f := func(archRaw uint8, seedRaw uint16, lenRaw uint16) bool {
		arch := int(archRaw) % len(Archetypes())
		n := 500 + int(lenRaw)%4000
		tr := &Trace{
			App:       NewApplication(arch, "prop", int64(seedRaw)),
			Name:      "prop-trace",
			Seed:      int64(seedRaw) + 1,
			NumInstrs: n,
		}

		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			t.Logf("write: %v", err)
			return false
		}
		rd, err := NewTraceReader(&buf)
		if err != nil {
			t.Logf("reader: %v", err)
			return false
		}
		if rd.Name != tr.Name || rd.Total != n {
			t.Logf("header mismatch: %q/%d", rd.Name, rd.Total)
			return false
		}

		want := make([]Instruction, 0, n)
		s := NewStream(tr)
		tmp := make([]Instruction, 777) // odd size to exercise partial reads
		for {
			k := s.Read(tmp)
			if k == 0 {
				break
			}
			want = append(want, tmp[:k]...)
		}

		got := make([]Instruction, 0, n)
		for {
			k, err := rd.Read(tmp)
			if err != nil {
				t.Logf("decode: %v", err)
				return false
			}
			if k == 0 {
				break
			}
			got = append(got, tmp[:k]...)
		}
		if rd.Remaining() != 0 {
			t.Logf("remaining %d after EOF", rd.Remaining())
			return false
		}
		if len(got) != len(want) {
			t.Logf("length %d != %d", len(got), len(want))
			return false
		}
		for i := range want {
			w, g := want[i], got[i]
			// Addr is only meaningful for memory ops; the format does not
			// carry it for other classes.
			if w.Op != OpLoad && w.Op != OpStore {
				w.Addr, g.Addr = 0, 0
			}
			if w != g {
				t.Logf("instr %d: %+v != %+v", i, g, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSerializeRejectsCorruptHeader checks corrupted magic and versions are
// refused rather than misparsed.
func TestSerializeRejectsCorruptHeader(t *testing.T) {
	tr := &Trace{App: NewApplication(0, "hdr", 1), Name: "x", Seed: 2, NumInstrs: 100}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	bad := append([]byte{}, good...)
	bad[0] = 'X'
	if _, err := NewTraceReader(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}

	bad = append([]byte{}, good...)
	bad[4] = traceVersion + 1
	if _, err := NewTraceReader(bytes.NewReader(bad)); err == nil {
		t.Error("unknown version accepted")
	}

	if _, err := NewTraceReader(bytes.NewReader(good[:3])); err == nil {
		t.Error("truncated header accepted")
	}
}

// TestSerializeTruncatedBody checks that a trace cut mid-record surfaces a
// decode error instead of silently returning short.
func TestSerializeTruncatedBody(t *testing.T) {
	tr := &Trace{App: NewApplication(1, "trunc", 3), Name: "t", Seed: 5, NumInstrs: 2000}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	rd, err := NewTraceReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	tmp := make([]Instruction, 4096)
	var total int
	for {
		k, err := rd.Read(tmp)
		total += k
		if err != nil {
			return // expected: ran off the truncated body
		}
		if k == 0 {
			break
		}
	}
	t.Fatalf("decoded %d of %d instructions from a truncated trace without error", total, rd.Total)
}

// hugeNameHeader is a 15-byte header that declares an empty trace with a
// name of 2^63-1 bytes; NewTraceReader used to panic allocating it.
const hugeNameHeader = "CGTR\x01\x00\xff\xff\xff\xff\xff\xff\xff\xff\x7f"

// TestSerializeRejectsOversizedHeader checks that header lengths the
// reader cannot honour — a name longer than maxTraceName, an instruction
// count past the int range — are errors, not panics or huge allocations.
func TestSerializeRejectsOversizedHeader(t *testing.T) {
	long := binary.AppendUvarint([]byte("CGTR\x01\x00"), maxTraceName+1)
	wide := binary.AppendUvarint([]byte("CGTR\x01"), 1<<63)
	for name, hdr := range map[string][]byte{
		"huge name": []byte(hugeNameHeader), "long name": long, "count past int": append(wide, 0),
	} {
		if _, err := NewTraceReader(bytes.NewReader(hdr)); err == nil {
			t.Errorf("%s: header accepted", name)
		}
	}
}

// FuzzTraceReader feeds arbitrary bytes to the decoder: the header must
// parse or fail with an error, and decoding must stop at an error or the
// declared count without ever producing more instructions than that. The
// committed seeds (testdata/fuzz/FuzzTraceReader) are WriteTrace output
// for two short generated traces and hugeNameHeader.
func FuzzTraceReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		if rd.Total < 0 {
			t.Fatalf("negative instruction count %d", rd.Total)
		}
		buf := make([]Instruction, 64)
		read := 0
		for {
			n, err := rd.Read(buf)
			read += n
			if read > rd.Total || rd.Remaining() != rd.Total-read {
				t.Fatalf("decoded %d of %d instructions, %d remaining", read, rd.Total, rd.Remaining())
			}
			if err != nil || n == 0 {
				return
			}
		}
	})
}
