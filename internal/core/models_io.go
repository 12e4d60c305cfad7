package core

import (
	"fmt"
	"io"

	"approxsim/internal/des"
	"approxsim/internal/macro"
	"approxsim/internal/micro"
)

// modelsHeader versions the on-disk bundle layout.
const modelsHeader = "approxsim-models-v1"

// Save writes the trained model bundle: a metadata header followed by the
// egress and ingress network weights.
func (m *Models) Save(w io.Writer) error {
	if m.Egress == nil || m.Ingress == nil {
		return fmt.Errorf("core: cannot save incomplete model bundle")
	}
	_, err := fmt.Fprintf(w, "%s %d %d %d %d %v %v %v\n",
		modelsHeader,
		int64(m.EgressFloor), int64(m.IngressFloor), m.Seed,
		int64(m.Macro.Window), m.Macro.LowLatencyFactor,
		m.Macro.HighDropRate, m.Macro.TrendTolerance)
	if err != nil {
		return fmt.Errorf("core: writing models header: %w", err)
	}
	if err := m.Egress.Save(w); err != nil {
		return err
	}
	return m.Ingress.Save(w)
}

// LoadModels reads a bundle written by Save.
func LoadModels(r io.Reader) (*Models, error) {
	var (
		header              string
		egFloor, ingFloor   int64
		seed                uint64
		window              int64
		lowFac, drop, trend float64
	)
	_, err := fmt.Fscanf(r, "%s %d %d %d %d %v %v %v\n",
		&header, &egFloor, &ingFloor, &seed, &window, &lowFac, &drop, &trend)
	if err != nil {
		return nil, fmt.Errorf("core: reading models header: %w", err)
	}
	if header != modelsHeader {
		return nil, fmt.Errorf("core: unrecognized model bundle header %q", header)
	}
	eg, err := micro.LoadModel(r)
	if err != nil {
		return nil, fmt.Errorf("core: egress model: %w", err)
	}
	ing, err := micro.LoadModel(r)
	if err != nil {
		return nil, fmt.Errorf("core: ingress model: %w", err)
	}
	return &Models{
		Egress: eg, Ingress: ing,
		EgressFloor: des.Time(egFloor), IngressFloor: des.Time(ingFloor),
		Seed: seed,
		Macro: macro.Config{
			Window:           des.Time(window),
			LowLatencyFactor: lowFac,
			HighDropRate:     drop,
			TrendTolerance:   trend,
		},
	}, nil
}
