package core

import (
	"fmt"
	"strings"

	"cliz/internal/grid"
	"cliz/internal/lossless"
)

// SectionInfo describes one section of a blob.
type SectionInfo struct {
	Name  string
	Bytes int
	// Backend names the lossless backend ("raw", "flate", "lzss") of a
	// section that is one lossless stream, read from its id byte; "?" for
	// an unknown id, and empty for sections that are not lossless streams
	// (header, nested blobs, a mask map's own framing).
	Backend string
}

// BlobInfo is the parsed structure of a CliZ blob, for inspection tools.
type BlobInfo struct {
	Kind     string // "unit", "periodic", "chunked"
	Dims     []int
	EB       float64
	Fill     float32
	Pipeline string
	// Version is the blob format version (0 for the chunked container root,
	// whose chunks carry their own versions).
	Version int
	// Checksummed reports a v3 blob whose header and sections carry CRC-32C
	// integrity checksums.
	Checksummed bool
	// IntegrityBytes counts the bytes the v3 section directory and checksums
	// add to this blob (excluding children).
	IntegrityBytes int
	// PSections is the predict-section count from the v2 header (1 for v1
	// blobs and for serial encodes): how many ways the fused leading
	// dimension was cut for parallel prediction/reconstruction.
	PSections int
	Sections  []SectionInfo
	// Children holds the template+residual of periodic blobs or the chunks
	// of a parallel container.
	Children []*BlobInfo
	Total    int
}

// IntegrityTotal sums the integrity overhead of the blob and all children.
func (b *BlobInfo) IntegrityTotal() int {
	n := b.IntegrityBytes
	for _, c := range b.Children {
		n += c.IntegrityTotal()
	}
	return n
}

// Inspect parses a blob's structure without decompressing the payload.
func Inspect(blob []byte) (*BlobInfo, error) {
	if IsChunked(blob) {
		return inspectChunked(blob)
	}
	pos := 0
	return inspectAt(blob, &pos)
}

func inspectAt(blob []byte, pos *int) (*BlobInfo, error) {
	start := *pos
	h, err := parseHeader(blob, pos)
	if err != nil {
		return nil, err
	}
	info := &BlobInfo{
		Dims:           h.dims,
		EB:             h.eb,
		Fill:           h.fill,
		Pipeline:       h.pipe.String(),
		Version:        int(h.version),
		Checksummed:    h.version >= version3,
		IntegrityBytes: h.integrityBytes,
		PSections:      h.psections,
	}
	info.Sections = append(info.Sections, SectionInfo{Name: "header", Bytes: *pos - start})
	if h.flags&flagPeriodic != 0 {
		info.Kind = "periodic"
		for _, name := range []string{"template", "residual"} {
			sec, err := readSection(blob, pos)
			if err != nil {
				return nil, err
			}
			cpos := 0
			child, err := inspectAt(sec, &cpos)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			child.Kind = name
			info.Children = append(info.Children, child)
			info.Sections = append(info.Sections, SectionInfo{Name: name, Bytes: len(sec)})
		}
		info.Total = *pos - start
		return info, nil
	}
	info.Kind = "unit"
	names := []string{}
	if h.flags&(flagMask|flagPointMask) != 0 {
		names = append(names, "mask")
	}
	if h.flags&flagClassify != 0 {
		names = append(names, "class-meta", "bins-A", "bins-B")
	} else {
		names = append(names, "bins")
	}
	names = append(names, "literals")
	for _, name := range names {
		sec, err := readSection(blob, pos)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		si := SectionInfo{Name: name, Bytes: len(sec)}
		// A mask map starts with its own dims header; a point mask is one
		// lossless stream, as are class-meta, bins and literals.
		if name != "mask" || h.flags&flagPointMask != 0 {
			si.Backend = losslessBackend(sec)
		}
		info.Sections = append(info.Sections, si)
	}
	info.Total = *pos - start
	return info, nil
}

// losslessBackend names the backend of a lossless stream from its id byte.
func losslessBackend(sec []byte) string {
	if len(sec) == 0 {
		return "?"
	}
	c, err := lossless.ByID(sec[0])
	if err != nil {
		return "?"
	}
	return c.Name()
}

func inspectChunked(blob []byte) (*BlobInfo, error) {
	pos := 4
	if pos >= len(blob) || blob[pos] != version1 {
		return nil, ErrCorrupt
	}
	pos++
	nd, err := readUvarint(blob, &pos)
	if err != nil || nd < 1 || nd > 8 {
		return nil, ErrCorrupt
	}
	dims := make([]int, nd)
	vol := 1
	for i := range dims {
		d, err := readUvarint(blob, &pos)
		if err != nil || d == 0 || d > 1<<31 {
			return nil, ErrCorrupt
		}
		dims[i] = int(d)
		if int(d) > (1<<33)/vol {
			return nil, ErrCorrupt
		}
		vol *= int(d)
	}
	nc, err := readUvarint(blob, &pos)
	if err != nil {
		return nil, ErrCorrupt
	}
	info := &BlobInfo{Kind: "chunked", Dims: dims, Total: len(blob)}
	for c := uint64(0); c < nc; c++ {
		if _, err := readUvarint(blob, &pos); err != nil { // lead extent
			return nil, err
		}
		sec, err := readSection(blob, &pos)
		if err != nil {
			return nil, err
		}
		cpos := 0
		child, err := inspectAt(sec, &cpos)
		if err != nil {
			return nil, fmt.Errorf("chunk %d: %w", c, err)
		}
		child.Kind = fmt.Sprintf("chunk[%d] %s", c, child.Kind)
		info.Children = append(info.Children, child)
	}
	return info, nil
}

// Render writes a human-readable tree of the blob structure, with each
// section's share of the blob and its cost in bits per data point.
func (b *BlobInfo) Render(indent string, w *strings.Builder) {
	fmt.Fprintf(w, "%s%s  dims=%v", indent, b.Kind, b.Dims)
	if b.Version > 0 {
		fmt.Fprintf(w, "  v%d", b.Version)
	}
	if b.Checksummed {
		w.WriteString("+crc")
	}
	if b.EB > 0 {
		fmt.Fprintf(w, "  eb=%g", b.EB)
	}
	if b.Pipeline != "" {
		fmt.Fprintf(w, "  [%s]", b.Pipeline)
	}
	if b.PSections > 1 {
		fmt.Fprintf(w, "  psections=%d", b.PSections)
	}
	points := grid.Volume(b.Dims)
	fmt.Fprintf(w, "  %d bytes", b.Total)
	if points > 0 && b.Total > 0 {
		fmt.Fprintf(w, " (%.3f bits/point)", float64(b.Total)*8/float64(points))
	}
	w.WriteByte('\n')
	for _, s := range b.Sections {
		fmt.Fprintf(w, "%s  %-10s %8d bytes", indent, s.Name, s.Bytes)
		if b.Total > 0 {
			fmt.Fprintf(w, " %5.1f%%", 100*float64(s.Bytes)/float64(b.Total))
		}
		if s.Backend != "" {
			fmt.Fprintf(w, "  %s", s.Backend)
		}
		w.WriteByte('\n')
	}
	for _, c := range b.Children {
		c.Render(indent+"    ", w)
	}
}

// String implements fmt.Stringer.
func (b *BlobInfo) String() string {
	var sb strings.Builder
	b.Render("", &sb)
	return sb.String()
}
