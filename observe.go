package hybrid

import (
	"hybridstore/internal/obs"
)

// EnableObservability wires an Observer into the assembled system: the
// cache manager's event stream feeds the per-query tracer, the backing
// store's op hook attributes reads and seeks, and the observer samples the
// run's headline quantities (hit ratios, SSD erase count, write
// amplification) through the system. Call once, after New; Search then
// produces one trace per query.
func (s *System) EnableObservability(o *obs.Observer) {
	s.obs = o
	// Label every advance of the shared clock onto the in-flight trace;
	// this is what makes per-query latency attribution sum exactly to the
	// elapsed time. RestartWarm keeps the same clock, so the hook survives
	// a warm restart.
	s.Clock.OnAdvance(o.HandleClockAdvance)
	if s.Manager != nil {
		s.Manager.SetEventSink(o.HandleEvent)
	}
	if s.HDD != nil {
		s.HDD.SetOpHook(o.HandleBackingOp)
	}
	if s.IndexSSD != nil {
		s.IndexSSD.SetOpHook(o.HandleBackingOp)
	}
	o.SetSampler(s.sample)
}

// sample reads the headline quantities through s at call time, so
// RestartWarm's manager swap is always seen.
func (s *System) sample() obs.Sample {
	var p obs.Sample
	if s.Manager != nil {
		st := s.Manager.Stats()
		p.RC, p.IC, p.RIC = st.ResultHitRatio(), st.ListHitRatio(), st.CombinedHitRatio()
		p.Degraded = s.Manager.DegradedMode()
		p.QuarantinedBytes = st.QuarantinedBytes
	}
	if s.CacheSSD != nil {
		w := s.CacheSSD.Wear()
		p.SSDErases, p.SSDWriteAmp = w.TotalErases, w.WriteAmplification
	}
	if s.CacheFaults != nil {
		fs := s.CacheFaults.FaultStats()
		p.InjectedErrors = fs.ReadErrors + fs.WriteErrors + fs.TrimErrors
	}
	if s.HDD != nil {
		if st := s.HDD.Stats(); st.Reads+st.Writes > 0 {
			p.HDDSeqHitRatio = float64(s.HDD.SequentialHits()) / float64(st.Reads+st.Writes)
		}
	}
	return p
}

// Obs returns the attached observer, or nil when observability is off.
func (s *System) Obs() *obs.Observer { return s.obs }

// Progress samples the observer's live progress (zero value when
// observability is off). Interval fields reset on every call.
func (s *System) Progress() obs.Progress {
	if s.obs == nil {
		return obs.Progress{}
	}
	return s.obs.Progress()
}
