package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary trace interchange format. Traces in this system are normally
// regenerated from seeds, but an on-disk form supports the paper's
// optimization-as-a-service story (Section 3.2): customers trace
// applications on-site and ship the traces for replay and retraining.
//
// Layout: a fixed header, then one varint-encoded record per instruction.
// Addresses and PCs are delta-encoded against the previous memory access
// and instruction respectively, which compresses sequential access
// patterns to a byte or two per field.

// traceMagic identifies the format; the version byte guards evolution.
const traceMagic = "CGTR"
const traceVersion = 1

// maxTraceName bounds the name length a header may declare, so a corrupt
// or hostile header cannot demand an arbitrarily large allocation.
const maxTraceName = 1 << 16

// WriteTrace streams every instruction of tr to w in the binary format.
func WriteTrace(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	header := []byte{traceVersion}
	header = binary.AppendUvarint(header, uint64(tr.NumInstrs))
	header = binary.AppendUvarint(header, uint64(len(tr.Name)))
	header = append(header, tr.Name...)
	if _, err := bw.Write(header); err != nil {
		return err
	}

	s := NewStream(tr)
	buf := make([]Instruction, 4096)
	var rec []byte
	var lastPC, lastAddr uint64
	for {
		n := s.Read(buf)
		if n == 0 {
			break
		}
		for _, in := range buf[:n] {
			rec = rec[:0]
			flags := byte(in.Op)
			if in.Taken {
				flags |= 0x80
			}
			rec = append(rec, flags)
			rec = binary.AppendUvarint(rec, uint64(in.Dep1))
			rec = binary.AppendUvarint(rec, uint64(in.Dep2))
			rec = binary.AppendVarint(rec, int64(in.PC)-int64(lastPC))
			lastPC = in.PC
			if in.Op == OpLoad || in.Op == OpStore {
				rec = binary.AppendVarint(rec, int64(in.Addr)-int64(lastAddr))
				lastAddr = in.Addr
			}
			if _, err := bw.Write(rec); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// TraceReader decodes a binary trace incrementally.
type TraceReader struct {
	r        *bufio.Reader
	Name     string
	Total    int
	read     int
	lastPC   uint64
	lastAddr uint64
}

// NewTraceReader validates the header and prepares to decode records.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	version, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if version != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	total, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if total > math.MaxInt {
		return nil, fmt.Errorf("trace: instruction count %d overflows int", total)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nameLen > maxTraceName {
		return nil, fmt.Errorf("trace: name length %d exceeds %d", nameLen, maxTraceName)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	return &TraceReader{r: br, Name: string(name), Total: int(total)}, nil
}

// Read fills buf with decoded instructions, returning 0 at end of trace.
func (tr *TraceReader) Read(buf []Instruction) (int, error) {
	n := 0
	for n < len(buf) && tr.read < tr.Total {
		flags, err := tr.r.ReadByte()
		if err != nil {
			return n, err
		}
		var in Instruction
		in.Op = OpClass(flags & 0x7F)
		in.Taken = flags&0x80 != 0
		d1, err := binary.ReadUvarint(tr.r)
		if err != nil {
			return n, err
		}
		d2, err := binary.ReadUvarint(tr.r)
		if err != nil {
			return n, err
		}
		in.Dep1, in.Dep2 = int32(d1), int32(d2)
		dpc, err := binary.ReadVarint(tr.r)
		if err != nil {
			return n, err
		}
		tr.lastPC = uint64(int64(tr.lastPC) + dpc)
		in.PC = tr.lastPC
		if in.Op == OpLoad || in.Op == OpStore {
			daddr, err := binary.ReadVarint(tr.r)
			if err != nil {
				return n, err
			}
			tr.lastAddr = uint64(int64(tr.lastAddr) + daddr)
			in.Addr = tr.lastAddr
		}
		buf[n] = in
		n++
		tr.read++
	}
	return n, nil
}

// Remaining reports how many instructions are still undecoded.
func (tr *TraceReader) Remaining() int { return tr.Total - tr.read }
