package experiments

import (
	"fmt"
	"time"

	"opinions/internal/rspclient"
	"opinions/internal/rspserver"
	"opinions/internal/simclock"
	"opinions/internal/trace"
	"opinions/internal/world"
)

// DeployConfig scales a simulated deployment.
type DeployConfig struct {
	Seed  int64
	Users int
	Days  int
	// TrainAfterDays is when the RSP first trains its model from the
	// volunteered pairs and ships it to clients (default: half the
	// horizon).
	TrainAfterDays int
	// SkipInference disables model training and opinion uploads,
	// producing the "explicit-only" baseline world.
	SkipInference bool
	// KeyBits sizes the token issuer's RSA key (default 1024; the
	// crypto cost is per-upload, so simulations keep it modest).
	KeyBits int
	// ReviewBoost multiplies users' review propensity (§3's reminder
	// campaigns); default 1.
	ReviewBoost float64
	// Retention bounds every device's on-device snapshot (§4.2);
	// default 30 days.
	Retention time.Duration
}

// Deployment is a fully wired simulated rollout: city, simulator, RSP
// server, and one device agent per user.
type Deployment struct {
	Config DeployConfig
	City   *world.City
	Sim    *trace.Simulator
	Server *rspserver.Server
	Agents map[world.UserID]*rspclient.Agent

	// ModelTrained reports whether the mid-deployment training step
	// produced a model.
	ModelTrained bool
}

// SimSeed returns the seed the deployment's trace simulator ran with,
// so experiments can replay the identical ground truth.
func (d *Deployment) SimSeed() int64 { return d.Config.Seed + 1 }

// RunDeployment simulates the full rollout loop of Figure 2:
//
//  1. Every user's device runs the agent; every simulated day it senses,
//     detects, stores, and queues anonymous uploads; vocal users post
//     reviews and volunteer training pairs.
//  2. Midway, the RSP trains the inference model; agents download it.
//  3. From then on agents infer opinions and upload them.
//  4. Uploads flush continuously as their mixing delays elapse.
func RunDeployment(cfg DeployConfig) (*Deployment, error) {
	if cfg.Users <= 0 {
		cfg.Users = 150
	}
	if cfg.Days <= 0 {
		cfg.Days = 90
	}
	if cfg.TrainAfterDays <= 0 || cfg.TrainAfterDays >= cfg.Days {
		cfg.TrainAfterDays = cfg.Days / 2
	}
	city := world.BuildCity(world.CityConfig{Seed: cfg.Seed, NumUsers: cfg.Users})
	sim := trace.New(city, trace.Config{Seed: cfg.Seed + 1, Days: cfg.Days, ReviewBoost: cfg.ReviewBoost})
	if cfg.KeyBits <= 0 {
		cfg.KeyBits = 1024
	}
	srv, err := rspserver.New(rspserver.Config{
		Catalog: city.Entities,
		Clock:   simclock.NewSim(sim.Start()),
		KeyBits: cfg.KeyBits,
		// Devices upload continuously; give them daily headroom.
		TokenRate: 1 << 20, TokenPeriod: 24 * time.Hour,
	})
	if err != nil {
		return nil, err
	}
	transport := &rspclient.LocalTransport{Server: srv, Clock: simclock.NewSim(sim.Start())}

	d := &Deployment{Config: cfg, City: city, Sim: sim, Server: srv, Agents: make(map[world.UserID]*rspclient.Agent)}
	for i, u := range city.Users {
		a := rspclient.NewAgent(rspclient.Config{
			DeviceID:  "dev-" + string(u.ID),
			Author:    string(u.ID),
			Seed:      cfg.Seed*7919 + int64(i),
			MixMax:    6 * time.Hour,
			Retention: cfg.Retention,
		}, transport)
		if err := a.Bootstrap(); err != nil {
			return nil, fmt.Errorf("experiments: bootstrapping %s: %w", u.ID, err)
		}
		d.Agents[u.ID] = a
	}

	for day := 0; day < cfg.Days; day++ {
		date := sim.Start().AddDate(0, 0, day)
		for _, dl := range sim.SimulateDate(day) {
			if _, err := d.Agents[dl.User].ProcessDay(dl); err != nil {
				return nil, fmt.Errorf("experiments: day %d user %s: %w", day, dl.User, err)
			}
		}
		// Model training milestone; if too few pairs have been
		// volunteered yet, retry weekly.
		if !cfg.SkipInference && !d.ModelTrained &&
			day >= cfg.TrainAfterDays && (day-cfg.TrainAfterDays)%7 == 0 {
			if _, err := srv.Retrain(); err == nil {
				d.ModelTrained = true
				for _, a := range d.Agents {
					_ = a.RefreshModel()
				}
			}
		}
		// Nightly: infer where possible and flush matured uploads.
		nightly := date.Add(26 * time.Hour) // next day, 02:00
		for _, a := range d.Agents {
			if d.ModelTrained && !cfg.SkipInference {
				a.InferOpinions(nightly)
			}
			if _, err := a.FlushUploads(nightly); err != nil {
				return nil, fmt.Errorf("experiments: flushing: %w", err)
			}
		}
	}
	// Final drain.
	drain := sim.Start().AddDate(0, 0, cfg.Days+1)
	for _, a := range d.Agents {
		if d.ModelTrained && !cfg.SkipInference {
			a.InferOpinions(drain)
		}
		if _, err := a.FlushUploads(drain); err != nil {
			return nil, err
		}
	}
	return d, nil
}
