package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file decodes the subset of the pprof profile.proto format that
// runtime/pprof writes for a CPU profile: samples with their location ids
// and values, locations with their (possibly inlined) lines, functions, and
// the string table. Only the standard library is available, so the
// protobuf wire format is read by hand.

// frame is one function in a sample's stack.
type frame struct {
	fn   string // fully qualified name, e.g. dapes/internal/sim.(*Kernel).RunUntil
	file string
}

// stackSample is one profile sample: the stack, innermost frame first, and
// the CPU time it stands for.
type stackSample struct {
	frames []frame
	cpuNS  int64
}

type pbLocation struct{ fnIDs []uint64 } // innermost (inlined) first

type pbFunction struct{ name, file int64 }

type pbSample struct {
	locIDs []uint64
	values []int64
}

// decodeCPUProfile parses a gzipped CPU profile from runtime/pprof.
func decodeCPUProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		samples []pbSample
		locs    = map[uint64]pbLocation{}
		funcs   = map[uint64]pbFunction{}
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s pbSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locIDs = appendUints(s.locIDs, v, b)
				case 2:
					for _, u := range appendUints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var l pbLocation
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							l.fnIDs = append(l.fnIDs, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = l
			return err
		case 5: // function
			var id uint64
			var f pbFunction
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			funcs[id] = f
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("profile: CPU sample without a nanoseconds value")
		}
		ss := stackSample{cpuNS: s.values[1]}
		for _, id := range s.locIDs {
			for _, fid := range locs[id].fnIDs {
				f := funcs[fid]
				ss.frames = append(ss.frames, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// appendUints appends a repeated integer field, which the encoder writes
// either packed (b holds varints) or one value per field (v).
func appendUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling f with each field's number
// and either its integer value (varint and fixed wire types, b == nil) or
// its bytes (length-delimited).
func eachField(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			v = binary.LittleEndian.Uint64(msg)
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			v = uint64(binary.LittleEndian.Uint32(msg))
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := f(num, v, b); err != nil {
			return err
		}
	}
	return nil
}
