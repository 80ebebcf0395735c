// Package entropy multiplexes the symbol-coding stage of the compression
// pipelines: canonical Huffman (the paper's choice) or static rANS (the
// FSE/Zstd family). Every block is self-describing — one kind byte followed
// by the coder's own payload — so pipelines can mix coders freely.
//
// Blocks may additionally be *sharded* (kind Sharded): the symbol stream is
// cut into contiguous sections that are encoded and decoded concurrently. A
// sharded Huffman block shares one code table across all shards; only the
// bitstreams are per-shard, so the size cost over a plain block is the shard
// directory (a few varints per shard). Sharded rANS blocks fall back to
// independent sub-blocks (one slot table each) because the rANS stream state
// cannot be split under a shared table without re-normalizing.
//
// Huffman blocks code int32 quantization bins where they lie, as their
// uint32 bit patterns, and DecodeBlockInto decodes them back into the
// caller's bins. The rANS coders take uint32 alphabets only, so int32
// symbols are converted into a staging copy for them.
package entropy

import (
	"errors"
	"sync"

	"cliz/internal/bitio"
	"cliz/internal/huffman"
	"cliz/internal/par"
	"cliz/internal/rans"
	"cliz/internal/symhist"
)

// Kind selects the symbol coder.
type Kind byte

// Available coders.
const (
	Huffman Kind = 0
	RANS    Kind = 1
	// Sharded marks a parallel container: a mode byte (shared-table Huffman
	// or independent sub-blocks), a shard directory, and per-shard streams.
	Sharded Kind = 2
	// RANSInterleaved codes with rans.DefaultWays interleaved states sharing
	// one stream: same model and size class as RANS, faster decode. Blocks
	// are self-describing, so v1-v3 blobs (which never carry this kind) are
	// untouched; it is only emitted when a pipeline opts in.
	RANSInterleaved Kind = 3
)

// Sharded container modes.
const (
	modeSharedHuffman byte = 0
	modeSubBlocks     byte = 1
)

// minShardSyms is the smallest symbol count worth cutting into one extra
// shard.
const minShardSyms = 1024

// maxShards bounds the decoder's shard-directory allocation; encoders use
// one shard per worker, so real counts are tiny.
const maxShards = 1 << 12

// ErrCorrupt reports an unknown coder id or malformed payload.
var ErrCorrupt = errors.New("entropy: corrupt block")

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Huffman:
		return "huffman"
	case RANS:
		return "rans"
	case Sharded:
		return "sharded"
	case RANSInterleaved:
		return "rans-interleaved"
	}
	return "unknown"
}

// EncodeBlock compresses symbols with the requested coder. rANS falls back
// to Huffman when the alphabet exceeds its slot table (the block records
// what was actually used).
func EncodeBlock[S symhist.Symbol](kind Kind, symbols []S) []byte {
	switch kind {
	case RANS:
		if body, ok := rans.EncodeBlock(symbols); ok {
			return append([]byte{byte(RANS)}, body...)
		}
	case RANSInterleaved:
		if body, ok := rans.EncodeInterleavedBlock(symbols, rans.DefaultWays); ok {
			return append([]byte{byte(RANSInterleaved)}, body...)
		}
	}
	return huffman.AppendBlock([]byte{byte(Huffman)}, symbols)
}

// DecodeBlock reverses EncodeBlock (and decodes sharded blocks serially; use
// DecodeBlockParallel to fan shard decoding out across workers).
func DecodeBlock(blob []byte) ([]uint32, error) {
	return DecodeBlockParallel(blob, 1)
}

// DecodeBlockParallel is DecodeBlock with bounded shard-level parallelism:
// the shards of a Sharded block decode on up to `workers` goroutines into
// disjoint windows of one output slice. Plain blocks (and workers <= 1)
// decode serially; the result is identical either way.
func DecodeBlockParallel(blob []byte, workers int) ([]uint32, error) {
	return DecodeBlockBounded(blob, workers, -1)
}

// DecodeBlockBounded is DecodeBlockParallel with a caller-supplied upper
// bound on the decoded symbol count (-1 for no caller bound). Decoders
// that know their output volume — the core layer always does — should
// pass it so a hostile declared count is rejected before any allocation
// instead of being discovered after a huge make().
func DecodeBlockBounded(blob []byte, workers, maxSyms int) ([]uint32, error) {
	if len(blob) == 0 {
		return nil, ErrCorrupt
	}
	switch Kind(blob[0]) {
	case Huffman:
		syms, _, err := huffman.DecodeBlockMax(blob[1:], maxSyms)
		return syms, err
	case RANS:
		syms, _, err := rans.DecodeBlockMax(blob[1:], ransBudget(maxSyms))
		return syms, err
	case RANSInterleaved:
		syms, _, err := rans.DecodeInterleavedBlockMax(blob[1:], ransBudget(maxSyms))
		return syms, err
	case Sharded:
		sh, err := parseSharded(blob[1:], maxSyms)
		if err != nil {
			return nil, err
		}
		out := make([]uint32, sh.syms())
		if err := decodeShards(sh, out, workers); err != nil {
			return nil, err
		}
		return out, nil
	}
	return nil, ErrCorrupt
}

// DecodeBlockInto decodes blob into dst, whose length must equal the
// block's symbol count; the shards of a Sharded block decode on up to
// `workers` goroutines into disjoint windows of dst. A Huffman block, plain
// or sharded, that declares any other count is rejected before a symbol is
// written, and decodes with no allocation of its own beyond the code table.
// rANS blocks decode into a staging slice, which is checked and copied.
func DecodeBlockInto[S symhist.Symbol](blob []byte, dst []S, workers int) error {
	if len(blob) == 0 {
		return ErrCorrupt
	}
	switch Kind(blob[0]) {
	case Huffman:
		return huffman.DecodeBlockInto(blob[1:], dst)
	case Sharded:
		sh, err := parseSharded(blob[1:], len(dst))
		if err != nil {
			return err
		}
		if sh.syms() != len(dst) {
			return ErrCorrupt
		}
		return decodeShards(sh, dst, workers)
	}
	syms, err := DecodeBlockBounded(blob, 1, len(dst))
	if err != nil {
		return err
	}
	if len(syms) != len(dst) {
		return ErrCorrupt
	}
	for i, s := range syms {
		dst[i] = S(s)
	}
	return nil
}

// ransBudget maps the caller bound onto rans.DecodeBlockMax's contract,
// which has no "unbounded" mode: absent a caller bound, fall back to the
// package-wide absolute cap.
func ransBudget(maxSyms int) int {
	if maxSyms < 0 {
		return rans.MaxBlockSyms
	}
	return maxSyms
}

// writerPool recycles the bitstream writers of parallel shard encoders; the
// backing buffers grow to shard size once and are reused across blobs.
var writerPool = sync.Pool{New: func() any { return bitio.NewWriter(0) }}

// EncodeBlockSharded encodes symbols as a Sharded container of `shards`
// contiguous sections compressed concurrently (bounded by the shard count
// itself — callers pick shards = worker budget). Huffman shards share one
// code table built over the full stream, so the output is the plain block's
// table and bitstream plus a small shard directory. shards <= 1, or streams
// too short to cut, degrade to the plain self-describing EncodeBlock. The
// output depends only on (kind, symbols, shards) — never on scheduling.
func EncodeBlockSharded[S symhist.Symbol](kind Kind, symbols []S, shards int) []byte {
	// Shards below ~minShardSyms symbols cost more in directory and table
	// overhead than the concurrency buys; short streams degrade gracefully.
	if s := len(symbols) / minShardSyms; shards > s {
		shards = s
	}
	if shards <= 1 {
		return EncodeBlock(kind, symbols)
	}
	bounds := shardBounds(len(symbols), shards)
	n := len(bounds) - 1
	if kind == RANS || kind == RANSInterleaved {
		// Independent sub-blocks: each shard re-derives its own table (and
		// keeps rANS's own Huffman fallback for oversized alphabets).
		subs := make([][]byte, n)
		par.Run(n, n, func(i int) {
			subs[i] = EncodeBlock(kind, symbols[bounds[i]:bounds[i+1]])
		})
		out := []byte{byte(Sharded), modeSubBlocks}
		out = appendUvarint(out, uint64(n))
		for i, sub := range subs {
			out = appendUvarint(out, uint64(bounds[i+1]-bounds[i]))
			out = appendUvarint(out, uint64(len(sub)))
		}
		for _, sub := range subs {
			out = append(out, sub...)
		}
		return out
	}
	// Shared-table Huffman: one codec over the full stream, per-shard
	// byte-aligned bitstreams.
	c := huffman.Build(symbols)
	defer c.Release()
	streams := make([][]byte, n)
	par.Run(n, n, func(i int) {
		w := writerPool.Get().(*bitio.Writer)
		w.Reset()
		_ = huffman.EncodeSymbols(c, symbols[bounds[i]:bounds[i+1]], w) // codec covers these symbols
		streams[i] = append([]byte(nil), w.Bytes()...)
		writerPool.Put(w)
	})
	out := []byte{byte(Sharded), modeSharedHuffman}
	out = c.SerializeTable(out)
	out = appendUvarint(out, uint64(n))
	for i, s := range streams {
		out = appendUvarint(out, uint64(bounds[i+1]-bounds[i]))
		out = appendUvarint(out, uint64(len(s)))
	}
	for _, s := range streams {
		out = append(out, s...)
	}
	return out
}

// shardBounds cuts n symbols into k near-equal contiguous sections.
func shardBounds(n, k int) []int {
	bounds := make([]int, 0, k+1)
	bounds = append(bounds, 0)
	for i := 1; i <= k; i++ {
		b := n * i / k
		if b > bounds[len(bounds)-1] {
			bounds = append(bounds, b)
		}
	}
	return bounds
}

// shardDir is one parsed shard-directory entry.
type shardDir struct {
	nSyms   int
	nBytes  int
	symOff  int
	byteOff int
}

// maxShardSymsPerByte caps a sub-block shard's declared symbol count per
// payload byte. Unlike Huffman, rANS encodes skewed alphabets well below one
// bit per symbol (a constant run costs a near-fixed header regardless of
// length), so only a generous ratio — the same order as the core layer's
// maxPointsPerByte — separates plausible streams from hostile directories
// that would force a huge output allocation before any shard decodes.
const maxShardSymsPerByte = 1 << 16

// parseShardDir reads the shard count and directory at body[*pos:], returning
// the entries with symbol/byte offsets resolved and validated against the
// remaining payload length. The per-shard symbol/byte plausibility check
// depends on the container mode: shared-Huffman shards cost at least one bit
// per symbol, sub-block shards only satisfy the looser allocation cap.
func parseShardDir(body []byte, pos *int, mode byte, maxSyms int) ([]shardDir, error) {
	nShards, err := readUvarint(body, pos)
	if err != nil || nShards == 0 || nShards > maxShards || nShards > uint64(len(body)) {
		return nil, ErrCorrupt
	}
	dir := make([]shardDir, nShards)
	symOff, byteOff := 0, 0
	for i := range dir {
		ns, err := readUvarint(body, pos)
		if err != nil {
			return nil, ErrCorrupt
		}
		nb, err := readUvarint(body, pos)
		if err != nil {
			return nil, ErrCorrupt
		}
		// The encoder never emits empty shards, and every shard carries at
		// least one payload byte (sub-blocks embed their own header; Huffman
		// streams carry the bits themselves).
		if ns == 0 || nb == 0 || nb > uint64(len(body)) {
			return nil, ErrCorrupt
		}
		// Shared-Huffman shards cost at least one bit per symbol, so beyond
		// 8x the payload bytes cannot be legitimate. Sub-block shards (rANS)
		// can dip far below a bit per symbol on skewed alphabets, so they
		// only get the allocation cap; a lying directory is still caught
		// after decode, when the shard's own symbol count disagrees.
		limit := 8 * nb
		if mode == modeSubBlocks {
			limit = maxShardSymsPerByte * nb
		}
		if ns > limit {
			return nil, ErrCorrupt
		}
		dir[i] = shardDir{nSyms: int(ns), nBytes: int(nb), symOff: symOff, byteOff: byteOff}
		symOff += int(ns)
		byteOff += int(nb)
		if symOff < 0 || byteOff < 0 {
			return nil, ErrCorrupt
		}
	}
	if byteOff > len(body)-*pos {
		return nil, ErrCorrupt
	}
	if maxSyms >= 0 && symOff > maxSyms {
		return nil, ErrCorrupt
	}
	return dir, nil
}

// sharded is a parsed Sharded container body: its mode, the shared code
// table (shared-Huffman mode only), the shard directory and the
// concatenated shard payloads.
type sharded struct {
	mode    byte
	codec   *huffman.Codec
	dir     []shardDir
	streams []byte
}

// syms is the container's total symbol count.
func (sh *sharded) syms() int {
	last := sh.dir[len(sh.dir)-1]
	return last.symOff + last.nSyms
}

// parseSharded parses a Sharded container body (everything after the kind
// byte), rejecting a directory that declares more than maxSyms symbols.
func parseSharded(body []byte, maxSyms int) (*sharded, error) {
	if len(body) < 2 {
		return nil, ErrCorrupt
	}
	sh := &sharded{mode: body[0]}
	pos := 1
	switch sh.mode {
	case modeSharedHuffman:
		c, n, err := huffman.ParseTable(body[pos:])
		if err != nil {
			return nil, ErrCorrupt
		}
		sh.codec = c
		pos += n
	case modeSubBlocks:
	default:
		return nil, ErrCorrupt
	}
	dir, err := parseShardDir(body, &pos, sh.mode, maxSyms)
	if err != nil {
		return nil, err
	}
	sh.dir, sh.streams = dir, body[pos:]
	return sh, nil
}

// decodeShards decodes every shard of sh into its window of dst
// (len(dst) == sh.syms()) with up to `workers` concurrent shard decoders.
func decodeShards[S symhist.Symbol](sh *sharded, dst []S, workers int) error {
	errs := make([]error, len(sh.dir))
	par.Run(workers, len(sh.dir), func(i int) {
		d := sh.dir[i]
		raw := sh.streams[d.byteOff : d.byteOff+d.nBytes]
		win := dst[d.symOff : d.symOff+d.nSyms]
		if sh.mode == modeSharedHuffman {
			errs[i] = huffman.DecodeSymbols(sh.codec, win, bitio.NewReader(raw))
			return
		}
		errs[i] = DecodeBlockInto(raw, win, 1)
	})
	for _, err := range errs {
		if err != nil {
			return ErrCorrupt
		}
	}
	return nil
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

func readUvarint(src []byte, pos *int) (uint64, error) {
	var v uint64
	var shift uint
	for i := *pos; i < len(src); i++ {
		if i-*pos > 9 {
			return 0, ErrCorrupt
		}
		b := src[i]
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			*pos = i + 1
			return v, nil
		}
		shift += 7
	}
	return 0, ErrCorrupt
}

// BlockStats splits an encoded block into its code-table bytes and payload
// bytes (symbol counts + bitstream) without decoding it — the observability
// layer uses this to report how much of each symbol stream is tree/table
// overhead. ok is false for malformed blocks.
func BlockStats(blob []byte) (kind Kind, tableBytes, streamBytes int, ok bool) {
	if len(blob) == 0 {
		return 0, 0, 0, false
	}
	kind = Kind(blob[0])
	body := blob[1:]
	var n int
	switch kind {
	case Huffman:
		_, pos, err := huffman.ParseTable(body)
		if err != nil {
			return kind, 0, 0, false
		}
		n = pos
	case RANS, RANSInterleaved:
		pos, tok := rans.TableBytes(body)
		if !tok {
			return kind, 0, 0, false
		}
		n = pos
	case Sharded:
		// Table side = mode byte + shared code table (if any) + the shard
		// directory; stream side = the concatenated shard payloads (which,
		// in sub-block mode, still embed their own small tables).
		if len(body) < 2 {
			return kind, 0, 0, false
		}
		pos := 1
		if body[0] == modeSharedHuffman {
			_, tn, err := huffman.ParseTable(body[pos:])
			if err != nil {
				return kind, 0, 0, false
			}
			pos += tn
		} else if body[0] != modeSubBlocks {
			return kind, 0, 0, false
		}
		if _, err := parseShardDir(body, &pos, body[0], -1); err != nil {
			return kind, 0, 0, false
		}
		n = pos
	default:
		return kind, 0, 0, false
	}
	return kind, n, len(body) - n, true
}
