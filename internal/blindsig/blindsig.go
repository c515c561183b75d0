// Package blindsig implements Chaum's RSA blind signatures [16] and the
// rate-limited token issuance the paper proposes in §4.2: "An RSP can
// however limit the impact of such attacks by handing out blindly signed
// tokens at a limited rate to every device and require that every device
// present a valid token when anonymously uploading information."
//
// The issuer signs a blinded message without learning it, so a token
// presented later on an anonymous channel cannot be linked back to the
// device it was issued to — yet each device only obtains tokens at a
// bounded rate, capping how much history any one attacker can write.
//
// This is the textbook scheme, sig = H(m)^d mod N blinded by a random
// r^e factor, over crypto/rsa's key material and math/big. The issuer
// signs through the Chinese remainder theorem on the key's two primes
// and its precomputed Dp, Dq and Qinv, and checks every signature
// (s^e mod N must give back the blinded value) before release, since a
// CRT result with one faulted half leaks a factor of N. math/big is not
// constant-time, so signing time depends on the key and on the blinded
// value; the full-width exponentiation this replaced was no better. It
// is deliberately free of external dependencies; the repository is
// stdlib-only.
package blindsig

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
	"time"

	"opinions/internal/simclock"
)

// Token is an unblinded, verifiable upload token.
type Token struct {
	// Msg is the token's serial message, chosen by the client.
	Msg []byte
	// Sig is the issuer's RSA signature over H(Msg).
	Sig *big.Int
}

// hashToInt maps a message into Z_N via SHA-256 (full-domain hashing is
// overkill for a 2048-bit modulus and a 256-bit digest; the digest is
// always < N).
func hashToInt(msg []byte) *big.Int {
	h := sha256.Sum256(msg)
	return new(big.Int).SetBytes(h[:])
}

// Blind blinds msg under pub. It returns the blinded value to send to
// the issuer and an unblind function to apply to the issuer's response.
// The random blinding factor comes from rng (use crypto/rand.Reader in
// production; tests may substitute a deterministic reader).
func Blind(pub *rsa.PublicKey, msg []byte, rng io.Reader) (*big.Int, func(*big.Int) *big.Int, error) {
	if pub == nil || pub.N == nil {
		return nil, nil, errors.New("blindsig: nil public key")
	}
	m := hashToInt(msg)
	var r *big.Int
	for {
		var err error
		r, err = rand.Int(rng, pub.N)
		if err != nil {
			return nil, nil, fmt.Errorf("blindsig: drawing blinding factor: %w", err)
		}
		if r.Sign() > 0 && new(big.Int).GCD(nil, nil, r, pub.N).Cmp(big.NewInt(1)) == 0 {
			break
		}
	}
	e := big.NewInt(int64(pub.E))
	re := new(big.Int).Exp(r, e, pub.N)           // r^e mod N
	blinded := re.Mul(re, m).Mod(re, pub.N)       // H(m)·r^e mod N
	rInv := new(big.Int).ModInverse(r, pub.N)     // r^-1 mod N
	unblind := func(blindSig *big.Int) *big.Int { // s' · r^-1 = H(m)^d
		s := new(big.Int).Mul(blindSig, rInv)
		return s.Mod(s, pub.N)
	}
	return blinded, unblind, nil
}

// Verify reports whether sig is a valid signature over msg under pub.
func Verify(pub *rsa.PublicKey, msg []byte, sig *big.Int) bool {
	if pub == nil || sig == nil {
		return false
	}
	e := big.NewInt(int64(pub.E))
	m := new(big.Int).Exp(sig, e, pub.N)
	return m.Cmp(hashToInt(msg)) == 0
}

// Issuer holds the RSP's signing key and enforces the per-device token
// rate limit. Issuer is safe for concurrent use: its lock covers only
// the per-device grant lists, so signs for different devices run in
// parallel.
type Issuer struct {
	key    *rsa.PrivateKey
	clock  simclock.Clock
	rate   int
	period time.Duration

	mu     sync.Mutex
	grants map[string][]time.Time
}

// ErrRateLimited is returned when a device has exhausted its token
// budget for the current period.
var ErrRateLimited = errors.New("blindsig: device token rate exceeded")

// ErrBlindedOutOfRange is returned for a blinded value outside [1, N):
// the request, not the issuer, is at fault.
var ErrBlindedOutOfRange = errors.New("blindsig: blinded value out of range")

// ErrSignFault is returned when a computed signature fails its check
// before release: a fault in the issuer's arithmetic, never a bad
// request.
var ErrSignFault = errors.New("blindsig: signature failed its check")

// NewIssuer generates a fresh bits-bit RSA key and returns an issuer
// granting each device at most ratePerPeriod tokens per period.
func NewIssuer(bits, ratePerPeriod int, period time.Duration, clock simclock.Clock) (*Issuer, error) {
	if ratePerPeriod < 1 {
		return nil, errors.New("blindsig: rate must be ≥ 1")
	}
	if period <= 0 {
		return nil, errors.New("blindsig: period must be positive")
	}
	if clock == nil {
		clock = simclock.Real{}
	}
	key, err := rsa.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, fmt.Errorf("blindsig: generating issuer key: %w", err)
	}
	return &Issuer{
		key:    key,
		clock:  clock,
		rate:   ratePerPeriod,
		period: period,
		grants: make(map[string][]time.Time),
	}, nil
}

// PublicKey returns the issuer's verification key.
func (is *Issuer) PublicKey() *rsa.PublicKey { return &is.key.PublicKey }

// Secret derives a 32-byte secret for label from the issuer's private
// key: HMAC-SHA256 keyed by the private exponent. Issuers holding one
// key derive one secret, and nothing public predicts it.
func (is *Issuer) Secret(label string) []byte {
	mac := hmac.New(sha256.New, is.key.D.Bytes())
	mac.Write([]byte(label))
	return mac.Sum(nil)
}

// Sign signs a blinded value for deviceID, enforcing the rate limit.
// The issuer authenticates the *device* here (this is the one
// non-anonymous interaction), but learns nothing about the token it is
// signing.
//
// Only the grant bookkeeping holds is.mu: the check and the record are
// one step, so two concurrent requests cannot both take a device's last
// grant. The signature is computed afterwards, concurrently with other
// devices' signs. A grant is spent even when the signature then fails
// its check: a fault is not the device's to retry.
func (is *Issuer) Sign(deviceID string, blinded *big.Int) (*big.Int, error) {
	if blinded == nil || blinded.Sign() <= 0 || blinded.Cmp(is.key.N) >= 0 {
		return nil, ErrBlindedOutOfRange
	}
	now := is.clock.Now()
	is.mu.Lock()
	recent := is.grants[deviceID][:0]
	for _, t := range is.grants[deviceID] {
		if now.Sub(t) < is.period {
			recent = append(recent, t)
		}
	}
	if len(recent) >= is.rate {
		is.grants[deviceID] = recent
		is.mu.Unlock()
		return nil, ErrRateLimited
	}
	is.grants[deviceID] = append(recent, now)
	is.mu.Unlock()
	return is.signCRT(blinded)
}

// signCRT computes blinded^d mod N through the Chinese remainder
// theorem on the key's two primes (Garner's recombination), about a
// third of the cost of one full-width exponentiation, and refuses to
// release a result that does not verify: a signature with one faulted
// half is congruent to the true one modulo just one prime, so its gcd
// with N would hand out a factor of the key.
func (is *Issuer) signCRT(c *big.Int) (*big.Int, error) {
	p, q := is.key.Primes[0], is.key.Primes[1]
	pre := &is.key.Precomputed
	m1 := new(big.Int).Exp(c, pre.Dp, p) // c^Dp mod p
	m2 := new(big.Int).Exp(c, pre.Dq, q) // c^Dq mod q
	h := m1.Sub(m1, m2)                  // Qinv·(m1−m2) mod p
	h.Mul(h, pre.Qinv).Mod(h, p)
	s := h.Mul(h, q).Add(h, m2) // m2 + h·q
	if new(big.Int).Exp(s, big.NewInt(int64(is.key.E)), is.key.N).Cmp(c) != 0 {
		return nil, ErrSignFault
	}
	return s, nil
}

// RequestToken runs the full client-side protocol against the issuer:
// blind a fresh random serial, obtain a blind signature, unblind it, and
// return the verifiable token. Serial randomness comes from rng.
func RequestToken(is *Issuer, deviceID string, rng io.Reader) (Token, error) {
	serial := make([]byte, 32)
	if _, err := io.ReadFull(rng, serial); err != nil {
		return Token{}, fmt.Errorf("blindsig: drawing serial: %w", err)
	}
	blinded, unblind, err := Blind(is.PublicKey(), serial, rng)
	if err != nil {
		return Token{}, err
	}
	blindSig, err := is.Sign(deviceID, blinded)
	if err != nil {
		return Token{}, err
	}
	return Token{Msg: serial, Sig: unblind(blindSig)}, nil
}

// Redeemer tracks spent tokens so each can be used exactly once.
// Redeemer is safe for concurrent use.
type Redeemer struct {
	pub   *rsa.PublicKey
	mu    sync.Mutex
	spent map[string]bool
}

// NewRedeemer returns a redeemer verifying against pub.
func NewRedeemer(pub *rsa.PublicKey) *Redeemer {
	return &Redeemer{pub: pub, spent: make(map[string]bool)}
}

// ErrTokenInvalid is returned for forged or malformed tokens.
var ErrTokenInvalid = errors.New("blindsig: invalid token")

// ErrTokenSpent is returned when a token is presented twice.
var ErrTokenSpent = errors.New("blindsig: token already spent")

// Redeem verifies the token and marks it spent.
func (rd *Redeemer) Redeem(t Token) error {
	if !Verify(rd.pub, t.Msg, t.Sig) {
		return ErrTokenInvalid
	}
	key := string(t.Msg)
	rd.mu.Lock()
	defer rd.mu.Unlock()
	if rd.spent[key] {
		return ErrTokenSpent
	}
	rd.spent[key] = true
	return nil
}
