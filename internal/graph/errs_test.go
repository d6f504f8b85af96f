package graph

import (
	"errors"
	"testing"

	"flashwalker/internal/errs"
)

func TestGeneratorErrorsWrapInvalidConfig(t *testing.T) {
	cases := map[string]func() error{
		"rmat zero vertices": func() error {
			_, err := RMAT(RMATConfig{NumEdges: 8})
			return err
		},
		"rmat bad probabilities": func() error {
			cfg := DefaultRMAT(16, 64, 1)
			cfg.A, cfg.B, cfg.C, cfg.D = 0.9, 0.9, 0.9, 0.9
			_, err := RMAT(cfg)
			return err
		},
		"rmat dedup past 2^32 vertices": func() error {
			// A dedup key takes 2·⌈log2 |V|⌉ bits, past 64 here.
			_, err := RMAT(DefaultRMAT(1<<32+1, 8, 1))
			return err
		},
		"powerlaw zero vertices": func() error {
			_, err := PowerLaw(PowerLawConfig{NumEdges: 8, Alpha: 0.8})
			return err
		},
		"uniform zero vertices": func() error {
			_, err := Uniform(0, 8, 1)
			return err
		},
	}
	for name, gen := range cases {
		err := gen()
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !errors.Is(err, errs.ErrInvalidConfig) {
			t.Errorf("%s: error %v does not wrap ErrInvalidConfig", name, err)
		}
	}
}
