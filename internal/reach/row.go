package reach

import "encoding/binary"

// The row codec. Every explored configuration is stored as a row of d
// counts packed at one width w of 1, 2, 4 or 8 bytes per count
// (little-endian), so a Lemma 6.2 construction whose counts never exceed
// 255 stores 59 species in 59 bytes instead of 472. All rows of one store
// share its width; a store starts at the narrowest width that holds its
// root and widens every row when a count does not fit (state-vector
// compression, as in SPIN). Counts are non-negative, so a value fits width
// w exactly when it is below 2^(8w) as an unsigned number; a negative value
// (not a valid count) only fits at 8 bytes, which round-trips it.

// widthFor returns the narrowest width in bytes that holds every bit of x.
func widthFor(x uint64) int {
	switch {
	case x <= 0xff:
		return 1
	case x <= 0xffff:
		return 2
	case x <= 0xffff_ffff:
		return 4
	}
	return 8
}

// rowWidth returns the narrowest width that holds every count of counts.
func rowWidth(counts []int64) int {
	var bits uint64
	for _, x := range counts {
		bits |= uint64(x)
	}
	return widthFor(bits)
}

// packRow encodes counts into dst (len(counts)*w bytes) at width w and
// reports whether every count fit. On false dst holds garbage and the
// caller must widen to rowWidth(counts) and pack again.
func packRow(dst []byte, counts []int64, w int) bool {
	switch w {
	case 1:
		dst = dst[:len(counts)]
		for i, x := range counts {
			if uint64(x) > 0xff {
				return false
			}
			dst[i] = byte(x)
		}
	case 2:
		dst = dst[:2*len(counts)]
		for i, x := range counts {
			if uint64(x) > 0xffff {
				return false
			}
			binary.LittleEndian.PutUint16(dst[2*i:], uint16(x))
		}
	case 4:
		dst = dst[:4*len(counts)]
		for i, x := range counts {
			if uint64(x) > 0xffff_ffff {
				return false
			}
			binary.LittleEndian.PutUint32(dst[4*i:], uint32(x))
		}
	default:
		dst = dst[:8*len(counts)]
		for i, x := range counts {
			binary.LittleEndian.PutUint64(dst[8*i:], uint64(x))
		}
	}
	return true
}

// unpackRow decodes the packed row src (width w) into dst, one count per
// element of dst.
func unpackRow(dst []int64, src []byte, w int) {
	switch w {
	case 1:
		src = src[:len(dst)]
		for i := range dst {
			dst[i] = int64(src[i])
		}
	case 2:
		src = src[:2*len(dst)]
		for i := range dst {
			dst[i] = int64(binary.LittleEndian.Uint16(src[2*i:]))
		}
	case 4:
		src = src[:4*len(dst)]
		for i := range dst {
			dst[i] = int64(binary.LittleEndian.Uint32(src[4*i:]))
		}
	default:
		src = src[:8*len(dst)]
		for i := range dst {
			dst[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
		}
	}
}

// unpackCount decodes count i of the packed row src (width w).
func unpackCount(src []byte, w, i int) int64 {
	switch w {
	case 1:
		return int64(src[i])
	case 2:
		return int64(binary.LittleEndian.Uint16(src[2*i:]))
	case 4:
		return int64(binary.LittleEndian.Uint32(src[4*i:]))
	}
	return int64(binary.LittleEndian.Uint64(src[8*i:]))
}

// widthLimit returns the largest count a row of width w holds.
func widthLimit(w int) uint64 {
	if w == 8 {
		return 1<<64 - 1
	}
	return 1<<(8*w) - 1
}

// putCount encodes count i of the packed row dst (width w), which must
// hold x.
func putCount(dst []byte, w, i int, x int64) {
	switch w {
	case 1:
		dst[i] = byte(x)
	case 2:
		binary.LittleEndian.PutUint16(dst[2*i:], uint16(x))
	case 4:
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(x))
	default:
		binary.LittleEndian.PutUint64(dst[8*i:], uint64(x))
	}
}

// repack re-encodes the packed counts of src from width from into dst at
// width to, which must hold every count. It serves both widening a store
// and narrowing a graph's rows to the width they need.
func repack(dst, src []byte, from, to int) {
	if from == to {
		copy(dst, src)
		return
	}
	var buf [64]int64
	for n := len(src) / from; n > 0; {
		k := min(n, len(buf))
		unpackRow(buf[:k], src, from)
		packRow(dst, buf[:k], to)
		src, dst = src[k*from:], dst[k*to:]
		n -= k
	}
}

// widen returns the packed counts src (width from) re-encoded at the wider
// width to, in a new slice.
func widen(src []byte, from, to int) []byte {
	dst := make([]byte, len(src)/from*to)
	repack(dst, src, from, to)
	return dst
}

// packedWidth returns the narrowest width that holds every count of the
// packed counts src (width w).
func packedWidth(src []byte, w int) int {
	var bits uint64
	for i := 0; i < len(src)/w; i++ {
		bits |= uint64(unpackCount(src, w, i))
	}
	return widthFor(bits)
}
