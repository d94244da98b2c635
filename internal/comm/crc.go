package comm

// CRC-32C combination, as zlib's crc32_combine: CRC(A‖B) is
// CRC(A)·x^(8·len B) ^ CRC(B) modulo the Castagnoli polynomial P.

const castagnoliRev = 0x82f63b78 // P in reflected bit order, as hash/crc32 has it

// frameResidue is the CRC-32C of every byte string that ends in its own
// CRC-32C (little-endian): Encode's output, a Frame's Head‖Payload‖Sum.
const frameResidue = 0x48674bc7

// x2n[k] is x^(2^k) mod P.
var x2n = func() (t [64]uint32) {
	p := uint32(1) << 30 // x^1
	for k := range t {
		t[k], p = p, mulModP(p, p)
	}
	return t
}()

// mulModP returns a·b mod P in reflected bit order; a must not be 0.
func mulModP(a, b uint32) (p uint32) {
	for m := uint32(1) << 31; ; m >>= 1 {
		if a&m != 0 {
			if p ^= b; a&(m-1) == 0 {
				return p
			}
		}
		b = b>>1 ^ castagnoliRev&-(b&1)
	}
}

// crcShift returns x^(8n) mod P: the factor by which n more bytes move the
// CRC-32C of what precedes them.
func crcShift(n int) uint32 {
	p := uint32(1) << 31 // x^0
	for k := 3; n > 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			p = mulModP(x2n[k], p)
		}
	}
	return p
}

// CombineChecksum returns the CRC-32C of A‖B from sumA = CRC-32C(A),
// sumB = CRC-32C(B) and the length of B.
func CombineChecksum(sumA, sumB uint32, lenB int) uint32 {
	return mulModP(crcShift(lenB), sumA) ^ sumB
}
