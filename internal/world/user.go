package world

import (
	"crypto/sha256"
	"encoding/binary"
	"math"

	"opinions/internal/geo"
)

// UserID identifies a simulated user.
type UserID string

// ParticipationClass buckets users by how much explicit feedback they
// produce, following the "1/9/90 rule" the paper cites for Yelp [11]:
// roughly 1% of users create content heavily, 9% occasionally, 90% never.
type ParticipationClass int

// Participation classes, from most to least vocal.
const (
	HeavyContributor ParticipationClass = iota
	OccasionalContributor
	Lurker
)

// String implements fmt.Stringer.
func (c ParticipationClass) String() string {
	switch c {
	case HeavyContributor:
		return "heavy"
	case OccasionalContributor:
		return "occasional"
	case Lurker:
		return "lurker"
	}
	return "unknown"
}

// ReviewProbability is the chance this class posts an explicit review
// after an interaction worth reviewing.
func (c ParticipationClass) ReviewProbability() float64 {
	switch c {
	case HeavyContributor:
		return 0.6
	case OccasionalContributor:
		return 0.08
	default:
		return 0.002
	}
}

// Persona is the behavioural parameterization of one user.
type Persona struct {
	// EatOutPerWeek is the expected number of restaurant visits per week.
	EatOutPerWeek float64
	// DentalPerYear is the expected number of dentist appointments per
	// year (adults average ~2).
	DentalPerYear float64
	// HomeServicePerYear is the expected number of plumber/electrician/
	// handyman engagements per year.
	HomeServicePerYear float64
	// Sociability in [0,1] is the probability a restaurant visit happens
	// as part of a group (§4.1's group-visit concern).
	Sociability float64
	// Explorer in [0,1] is how willing the user is to try new options
	// instead of returning to a known favourite. Low explorers are the
	// "laziness or compulsion" cases of §4.1.
	Explorer float64
	// Pickiness in [0,1] scales how strongly choice follows quality.
	Pickiness float64
}

// User is one simulated person.
type User struct {
	ID    UserID
	Home  geo.Point
	Work  geo.Point
	Class ParticipationClass
	Persona

	// tasteSeed personalizes ground-truth opinions: two users disagree
	// about the same entity.
	tasteSeed uint64
}

// TrueOpinion returns the user's ground-truth opinion of e in [0, 5].
// It is a deterministic function of (user, entity): the entity's latent
// quality plus a stable personal offset. Only the simulator and the
// experiment scorers may call this; no system component does.
func (u *User) TrueOpinion(e *Entity) float64 {
	h := sha256.Sum256([]byte(string(u.ID) + "|" + e.Key()))
	bits := binary.BigEndian.Uint64(h[:8]) ^ u.tasteSeed
	// Map to a personal offset in roughly N(0, 0.55) via sum of uniforms.
	var s float64
	for i := 0; i < 4; i++ {
		s += float64((bits>>(i*16))&0xffff)/65535.0 - 0.5
	}
	offset := s * 0.95 // sd of sum of 4 uniforms is ~0.577; scale to ~0.55
	return clamp(e.Quality+offset, 0, 5)
}

// utility is the user's idiosyncratic attractiveness of e given the
// distance to it in meters; the trace simulator uses it to pick where to
// go. Closer and better-liked is more attractive; Pickiness sharpens the
// quality term.
func (u *User) utility(e *Entity, distMeters float64) float64 {
	op := u.TrueOpinion(e)
	return (0.5+u.Pickiness)*op - distMeters/1500.0
}

// ExplicitRating returns the rating the user would post in a review:
// the true opinion quantized to half stars with slight positivity bias,
// matching how public ratings skew high.
func (u *User) ExplicitRating(e *Entity) float64 {
	r := u.TrueOpinion(e) + 0.25
	r = math.Round(r*2) / 2
	return clamp(r, 0, 5)
}
