package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"unsafe"

	"rumor/internal/cas"
)

// Encode writes the graph in a simple line-oriented text format:
//
//	rumorgraph <n> <m> <name>
//	landmark <key> <v>   (one line per landmark, sorted by key)
//	u v                  (one line per undirected edge, u < v)
//
// The format round-trips through Decode: the decoded graph encodes to the
// same binary CSR bytes as the original.
func (g *Graph) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "rumorgraph %d %d %s\n", g.N(), g.M(), sanitizeName(g.name)); err != nil {
		return err
	}
	for _, k := range g.LandmarkNames() {
		if _, err := fmt.Fprintf(bw, "landmark %s %d\n", k, g.landmarks[k]); err != nil {
			return err
		}
	}
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(Vertex(v)) {
			if Vertex(v) < u {
				if _, err := fmt.Fprintf(bw, "%d %d\n", v, u); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// Decode parses a graph in the Encode format.
func Decode(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("graph: empty input")
	}
	header := strings.Fields(sc.Text())
	if len(header) < 3 || header[0] != "rumorgraph" {
		return nil, fmt.Errorf("graph: bad header %q", sc.Text())
	}
	n, err := strconv.Atoi(header[1])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("graph: bad vertex count %q", header[1])
	}
	m, err := strconv.Atoi(header[2])
	if err != nil || m < 0 {
		return nil, fmt.Errorf("graph: bad edge count %q", header[2])
	}
	name := "imported"
	if len(header) >= 4 {
		name = header[3]
	}
	b := NewBuilder(n, name)
	edges := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 3 && fields[0] == "landmark" {
			v, err := strconv.Atoi(fields[2])
			if err != nil || v < 0 || v >= n {
				return nil, fmt.Errorf("graph: bad landmark line %q", line)
			}
			b.SetLandmark(fields[1], Vertex(v))
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: bad edge line %q", line)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: bad vertex %q", fields[0])
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: bad vertex %q", fields[1])
		}
		if err := b.AddEdge(Vertex(u), Vertex(v)); err != nil {
			return nil, err
		}
		edges++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if edges != m {
		return nil, fmt.Errorf("graph: header claims %d edges, found %d", m, edges)
	}
	return b.Build()
}

func sanitizeName(s string) string {
	if s == "" {
		return "unnamed"
	}
	return strings.ReplaceAll(s, " ", "_")
}

// Versioned binary CSR format.
//
// The text format above round-trips small graphs; the binary format below
// is the out-of-core representation: a fixed header, then the CSR arrays
// laid out exactly as the in-memory storage layer holds them (offsets in
// the width-adaptive 4- or 8-byte form, neighbors as int32), 8-byte
// aligned so a read-only mmap of the file can be aliased directly as the
// graph's arrays with zero copies — opening a 100M-vertex graph faults in
// only the pages a sweep touches. Landmarks and the name ride in a
// trailer after the arrays (they are metadata, not hot-path state).
//
// Layout (all integers little-endian):
//
//	  0  magic   "RUMORCSR"          (8 bytes)
//	  8  version u32                 (currently 1)
//	 12  flags   u32                 (bit 0: offsets are u32)
//	 16  n       u64                 (vertex count)
//	 24  e       u64                 (endpoint count = 2M)
//	 32  nameLen u32
//	 36  lmkN    u32                 (landmark count)
//	 40  trailer u64                 (trailer length in bytes)
//	 48  reserved                    (16 zero bytes)
//	 64  offsets (n+1 entries × 4 or 8 bytes)
//	     pad to 8-byte boundary
//	     neighbors (e entries × 4 bytes)
//	     trailer: name bytes, then per landmark (sorted by name):
//	              u32 keyLen, key bytes, u32 vertex
//
// Encoding is deterministic: equal graphs produce byte-identical files
// (landmarks are sorted), which is what lets the content-addressed store
// and the streamed-vs-legacy builder property tests compare raw bytes.

const (
	csrMagic      = "RUMORCSR"
	csrVersion    = 1
	csrFlagOff32  = 1 << 0
	csrHeaderSize = 64
)

// hostLittleEndian reports the native byte order; on little-endian hosts
// (every platform this repository targets in practice) array sections are
// written and aliased without per-element conversion.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// csrPad returns the bytes of padding needed to align n up to 8.
func csrPad(n int64) int64 { return (8 - n%8) % 8 }

// EncodeCSR writes the graph in the versioned binary CSR format. The
// encoding is deterministic and byte-stable across processes.
func (g *Graph) EncodeCSR(w io.Writer) error {
	n := int64(g.N())
	endpoints := int64(len(g.neighbors))
	name := sanitizeName(g.name)
	lmkNames := g.LandmarkNames()

	trailerLen := int64(len(name))
	for _, k := range lmkNames {
		trailerLen += 4 + int64(len(k)) + 4
	}

	var hdr [csrHeaderSize]byte
	copy(hdr[0:8], csrMagic)
	binary.LittleEndian.PutUint32(hdr[8:], csrVersion)
	flags := uint32(0)
	if !g.off.wide() {
		flags |= csrFlagOff32
	}
	binary.LittleEndian.PutUint32(hdr[12:], flags)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(n))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(endpoints))
	binary.LittleEndian.PutUint32(hdr[32:], uint32(len(name)))
	binary.LittleEndian.PutUint32(hdr[36:], uint32(len(lmkNames)))
	binary.LittleEndian.PutUint64(hdr[40:], uint64(trailerLen))

	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var offBytes int64
	if g.off.wide() {
		offBytes = (n + 1) * 8
		if err := writeInt64sLE(bw, g.off.o64); err != nil {
			return err
		}
	} else {
		offBytes = (n + 1) * 4
		if err := writeUint32sLE(bw, g.off.o32); err != nil {
			return err
		}
	}
	var pad [8]byte
	if p := csrPad(csrHeaderSize + offBytes); p > 0 {
		if _, err := bw.Write(pad[:p]); err != nil {
			return err
		}
	}
	if err := writeVerticesLE(bw, g.neighbors); err != nil {
		return err
	}
	if _, err := bw.WriteString(name); err != nil {
		return err
	}
	var u32 [4]byte
	for _, k := range lmkNames {
		binary.LittleEndian.PutUint32(u32[:], uint32(len(k)))
		if _, err := bw.Write(u32[:]); err != nil {
			return err
		}
		if _, err := bw.WriteString(k); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(u32[:], uint32(g.landmarks[k]))
		if _, err := bw.Write(u32[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeUint32sLE writes s as little-endian bytes: a single unsafe byte
// view on little-endian hosts, chunked conversion otherwise.
func writeUint32sLE(w io.Writer, s []uint32) error {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		_, err := w.Write(unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4))
		return err
	}
	var buf [64 << 10]byte
	for len(s) > 0 {
		chunk := min(len(s), len(buf)/4)
		for i := 0; i < chunk; i++ {
			binary.LittleEndian.PutUint32(buf[i*4:], s[i])
		}
		if _, err := w.Write(buf[:chunk*4]); err != nil {
			return err
		}
		s = s[chunk:]
	}
	return nil
}

func writeInt64sLE(w io.Writer, s []int64) error {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		_, err := w.Write(unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8))
		return err
	}
	var buf [64 << 10]byte
	for len(s) > 0 {
		chunk := min(len(s), len(buf)/8)
		for i := 0; i < chunk; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], uint64(s[i]))
		}
		if _, err := w.Write(buf[:chunk*8]); err != nil {
			return err
		}
		s = s[chunk:]
	}
	return nil
}

func writeVerticesLE(w io.Writer, s []Vertex) error {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		_, err := w.Write(unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4))
		return err
	}
	var buf [64 << 10]byte
	for len(s) > 0 {
		chunk := min(len(s), len(buf)/4)
		for i := 0; i < chunk; i++ {
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(s[i]))
		}
		if _, err := w.Write(buf[:chunk*4]); err != nil {
			return err
		}
		s = s[chunk:]
	}
	return nil
}

// DecodeCSR decodes a binary-CSR graph from data. On little-endian hosts
// the returned graph's arrays alias data (zero copy), so the caller must
// keep data immutable and alive for the graph's lifetime; on big-endian
// hosts the arrays are converted onto the heap. Structural header fields
// are fully validated; array contents are trusted the way the serve
// layer's spill tier trusts its files — the store that manages these
// files rebuilds on any decode error.
func DecodeCSR(data []byte) (*Graph, error) {
	g, _, err := decodeCSR(data)
	return g, err
}

// decodeCSR reports, alongside the graph, whether its arrays alias data.
func decodeCSR(data []byte) (g *Graph, aliased bool, err error) {
	if len(data) < csrHeaderSize || string(data[0:8]) != csrMagic {
		return nil, false, fmt.Errorf("graph: not a binary CSR file")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != csrVersion {
		return nil, false, fmt.Errorf("graph: unsupported CSR version %d", v)
	}
	flags := binary.LittleEndian.Uint32(data[12:])
	n := binary.LittleEndian.Uint64(data[16:])
	endpoints := binary.LittleEndian.Uint64(data[24:])
	nameLen := binary.LittleEndian.Uint32(data[32:])
	lmkN := binary.LittleEndian.Uint32(data[36:])
	trailerLen := binary.LittleEndian.Uint64(data[40:])

	if n >= 1<<31 || endpoints >= 1<<62 || nameLen > 1<<16 || lmkN > 1<<16 {
		return nil, false, fmt.Errorf("graph: CSR header out of range (n=%d e=%d)", n, endpoints)
	}
	off32 := flags&csrFlagOff32 != 0
	if off32 && endpoints >= 1<<32 {
		return nil, false, fmt.Errorf("graph: CSR claims 32-bit offsets for %d endpoints", endpoints)
	}
	offWidth := int64(8)
	if off32 {
		offWidth = 4
	}
	offBytes := (int64(n) + 1) * offWidth
	nbrStart := csrHeaderSize + offBytes + csrPad(csrHeaderSize+offBytes)
	total := nbrStart + int64(endpoints)*4 + int64(trailerLen)
	if int64(len(data)) != total {
		return nil, false, fmt.Errorf("graph: CSR file is %d bytes, header implies %d", len(data), total)
	}

	var off offsetStore
	var neighbors []Vertex
	aliased = hostLittleEndian
	if hostLittleEndian {
		if off32 {
			off.o32 = unsafe.Slice((*uint32)(unsafe.Pointer(&data[csrHeaderSize])), n+1)
		} else {
			off.o64 = unsafe.Slice((*int64)(unsafe.Pointer(&data[csrHeaderSize])), n+1)
		}
		if endpoints > 0 {
			neighbors = unsafe.Slice((*Vertex)(unsafe.Pointer(&data[nbrStart])), endpoints)
		}
	} else {
		off = newOffsetStore(int(n), int64(endpoints))
		for i := int64(0); i <= int64(n); i++ {
			if off32 {
				off.set(int(i), int64(binary.LittleEndian.Uint32(data[csrHeaderSize+i*4:])))
			} else {
				off.set(int(i), int64(binary.LittleEndian.Uint64(data[csrHeaderSize+i*8:])))
			}
		}
		neighbors = make([]Vertex, endpoints)
		for i := range neighbors {
			neighbors[i] = Vertex(binary.LittleEndian.Uint32(data[nbrStart+int64(i)*4:]))
		}
	}
	if off.at(0) != 0 || off.at(int(n)) != int64(endpoints) {
		return nil, false, fmt.Errorf("graph: CSR offsets endpoints mismatch")
	}

	tr := data[nbrStart+int64(endpoints)*4:]
	if uint64(len(tr)) != trailerLen || uint64(nameLen) > trailerLen {
		return nil, false, fmt.Errorf("graph: CSR trailer truncated")
	}
	name := string(tr[:nameLen])
	tr = tr[nameLen:]
	var landmarks map[string]Vertex
	if lmkN > 0 {
		landmarks = make(map[string]Vertex, lmkN)
	}
	for i := uint32(0); i < lmkN; i++ {
		if len(tr) < 4 {
			return nil, false, fmt.Errorf("graph: CSR landmark %d truncated", i)
		}
		kl := binary.LittleEndian.Uint32(tr)
		if uint64(len(tr)) < 8+uint64(kl) {
			return nil, false, fmt.Errorf("graph: CSR landmark %d truncated", i)
		}
		key := string(tr[4 : 4+kl])
		v := Vertex(binary.LittleEndian.Uint32(tr[4+kl:]))
		if v < 0 || uint64(v) >= n {
			return nil, false, fmt.Errorf("graph: CSR landmark %q out of range", key)
		}
		landmarks[key] = v
		tr = tr[8+kl:]
	}
	if len(tr) != 0 {
		return nil, false, fmt.Errorf("graph: CSR trailer has %d trailing bytes", len(tr))
	}
	return &Graph{off: off, neighbors: neighbors, name: name, landmarks: landmarks}, aliased, nil
}

// WriteCSRFile encodes g atomically into path (cas.WriteFile: temp file
// + rename), so concurrent or crashed writers leave either the full file
// or none.
func WriteCSRFile(g *Graph, path string) error { return cas.WriteFile(path, g.EncodeCSR) }

// OpenCSRFile maps path read-only and decodes it as a binary CSR graph.
// On little-endian hosts the graph's arrays alias the mapping — pages
// fault in on access and the kernel reclaims them under memory pressure —
// and the mapping is released by a runtime cleanup once the graph is
// unreachable. Decode errors leave no mapping behind.
func OpenCSRFile(path string) (*Graph, error) {
	g, _, err := openCSR(path)
	return g, err
}

// openCSR is OpenCSRFile that also says whether a failure is corruption:
// the bytes were mapped and did not decode. Open and map failures
// (EACCES, EMFILE, ENOMEM, a directory at path) say nothing about the
// file's contents.
func openCSR(path string) (g *Graph, corrupt bool, err error) {
	m, err := mapFile(path)
	if err != nil {
		return nil, false, err
	}
	g, aliased, err := decodeCSR(m.data)
	if err != nil {
		m.close()
		return nil, true, err
	}
	if !aliased {
		// Arrays were copied to the heap; the mapping is no longer needed
		// and the graph is accounted as heap-resident.
		m.close()
		return g, false, nil
	}
	g.backing = m
	runtime.AddCleanup(g, func(m *mapping) { m.close() }, m)
	return g, false, nil
}
