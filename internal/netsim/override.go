package netsim

import "mmlab/internal/config"

// OverridePrimaryEvent replaces the primary handoff event (report id 2) in
// every LTE cell of the world with the given configuration. The Type-II
// experiments of §4.1 compare specific configurations (ΔA3 = 5 vs 12 dB,
// the A5a–A5d threshold settings of Fig. 8); this pins the whole arena to
// one setting so runs differ only in the parameter under study.
func OverridePrimaryEvent(w *World, ev config.EventConfig) {
	for _, c := range w.Cells {
		if c.Site.Identity.RAT != config.RATLTE {
			continue
		}
		if c.Config.Meas.Reports == nil {
			continue
		}
		if _, ok := c.Config.Meas.Reports[2]; ok {
			c.Config.Meas.Reports[2] = ev
		}
	}
}

// OverrideServing applies fn to every cell's serving block (idle-state
// sweeps, e.g. Fig. 11's threshold-gap scenarios).
func OverrideServing(w *World, fn func(*config.ServingCellConfig)) {
	for _, c := range w.Cells {
		fn(&c.Config.Serving)
	}
}
