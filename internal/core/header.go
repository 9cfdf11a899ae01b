package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"slimstore/internal/chunker"
	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
	"slimstore/internal/oss"
)

// HeaderKey names the repository header, the one object that says how every
// other is laid out: plain on the base store (never striped, never sharded),
// the first object a new repository gets, and nothing in it but the layout,
// so repositories created alike have identical headers. Fixed-width
// little-endian, every number a u32:
//
//	0 "SLIMREPO" | 8 version | 12 FingerprintAlg | 16 ChunkAlgo [16]
//	| 32 ChunkParams Min, Avg, Max | 44 GlobalShards | 48 GlobalReplicas
//	| 52 ECDataShards | 56 ECParityShards | 60 CRC32C of all before
//
// Format 3 has no intent journal and a checksummed catalog entry; 2, whose
// store may hold a committed journal record this build would not roll
// forward, and 1, before write-once payloads (container.Meta.Payload), are
// refused.
const (
	HeaderKey     = "repo/header"
	headerMagic   = "SLIMREPO"
	headerVersion = 3
	headerSize    = 64
)

// encodeHeader serialises the layout fields of a validated config.
func encodeHeader(c *Config) []byte {
	b := make([]byte, headerSize)
	copy(b, headerMagic)
	binary.LittleEndian.PutUint32(b[8:], headerVersion)
	binary.LittleEndian.PutUint32(b[12:], uint32(c.FingerprintAlg))
	copy(b[16:32], c.ChunkAlgo)
	for i, v := range []int{c.ChunkParams.Min, c.ChunkParams.Avg, c.ChunkParams.Max,
		c.GlobalShards, c.GlobalReplicas, c.ECDataShards, c.ECParityShards} {
		binary.LittleEndian.PutUint32(b[32+4*i:], uint32(v))
	}
	binary.LittleEndian.PutUint32(b[60:], container.ChecksumOf(b[:60]))
	return b
}

// decodeHeader parses a header into the layout fields of a Config (every
// other field zero), saying which check an unreadable one failed.
func decodeHeader(b []byte) (Config, error) {
	var c Config
	if n := min(len(b), len(headerMagic)); string(b[:n]) != headerMagic[:n] {
		return c, fmt.Errorf("core: repository header: bad magic")
	}
	if len(b) >= 12 {
		if v := binary.LittleEndian.Uint32(b[8:]); v != headerVersion {
			return c, fmt.Errorf("core: repository header: format %d, this build reads %d (no intent journal, checksummed catalog entries)", v, headerVersion)
		}
	}
	if len(b) != headerSize {
		return c, fmt.Errorf("core: repository header: truncated or padded: %d bytes, want %d", len(b), headerSize)
	}
	if got, want := container.ChecksumOf(b[:60]), binary.LittleEndian.Uint32(b[60:]); got != want {
		return c, fmt.Errorf("core: repository header: checksum %08x, want %08x", got, want)
	}
	n := func(i int) int { return int(binary.LittleEndian.Uint32(b[32+4*i:])) }
	c.FingerprintAlg = fingerprint.Algorithm(binary.LittleEndian.Uint32(b[12:]))
	c.ChunkAlgo = strings.TrimRightFunc(string(b[16:32]), func(r rune) bool { return r == 0 }) // not bytes.TrimRight: CHANGES PR 24, setup_s
	c.ChunkParams = chunker.Params{Min: n(0), Avg: n(1), Max: n(2)}
	c.GlobalShards, c.GlobalReplicas, c.ECDataShards, c.ECParityShards = n(3), n(4), n(5), n(6)
	return c, nil
}

// adopt applies the one rule for a layout field: zero takes the
// repository's value, non-zero must equal it.
func adopt[T comparable](field string, have T, asked *T) error {
	var zero T
	if *asked == zero {
		*asked = have
	} else if *asked != have {
		return fmt.Errorf("core: repository has %s=%v, opened with %s=%v", field, have, field, *asked)
	}
	return nil
}

// openHeader settles cfg's layout against the store and leaves it
// defaulted and validated: an existing repository's header is adopted (one
// GET; a mismatch or an unreadable header is refused before anything else
// is touched), an empty store gets the header of cfg as its first object,
// and a store that holds objects but no header is refused.
func openHeader(store oss.Store, cfg *Config) error {
	raw, err := store.Get(HeaderKey)
	exists := err == nil
	if exists {
		hdr, err := decodeHeader(raw)
		if err == nil {
			err = errors.Join(
				adopt("FingerprintAlg", hdr.FingerprintAlg, &cfg.FingerprintAlg),
				adopt("ChunkAlgo", hdr.ChunkAlgo, &cfg.ChunkAlgo),
				adopt("ChunkParams", hdr.ChunkParams, &cfg.ChunkParams),
				adopt("GlobalShards", hdr.GlobalShards, &cfg.GlobalShards),
				adopt("GlobalReplicas", hdr.GlobalReplicas, &cfg.GlobalReplicas),
				adopt("ECDataShards", hdr.ECDataShards, &cfg.ECDataShards),
				adopt("ECParityShards", hdr.ECParityShards, &cfg.ECParityShards))
		}
		if err != nil {
			return err
		}
	} else if !errors.Is(err, oss.ErrNotFound) {
		return fmt.Errorf("core: read repository header: %w", err)
	}
	cfg.fillDefaults()
	if _, err := chunker.New(cfg.ChunkAlgo, cfg.ChunkParams); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if !cfg.FingerprintAlg.Valid() {
		// Hashing under a guessed algorithm would write fingerprints no
		// correctly configured process can match.
		return fmt.Errorf("core: unknown fingerprint algorithm %v", cfg.FingerprintAlg)
	}
	if cfg.GlobalShards > 256 {
		return fmt.Errorf("core: GlobalShards %d exceeds the 256 prefix ranges", cfg.GlobalShards)
	}
	if k, m := cfg.ECDataShards, cfg.ECParityShards; k < 0 || m < 0 || m > 0 && k == 0 {
		// Parity over nothing would be a single-copy repository that was
		// asked to be redundant.
		return fmt.Errorf("core: ECDataShards=%d, ECParityShards=%d: parity needs data shards, and neither may be negative", k, m)
	}
	if exists {
		return nil
	}
	keys, err := store.List("")
	if err != nil {
		return fmt.Errorf("core: list store: %w", err)
	}
	if len(keys) > 0 {
		return fmt.Errorf("core: store holds objects but no repository header (%d keys, first %q)", len(keys), keys[0])
	}
	if err := store.Put(HeaderKey, encodeHeader(cfg)); err != nil {
		return fmt.Errorf("core: write repository header: %w", err)
	}
	return nil
}
