package hybrid

import (
	"encoding/json"
	"fmt"
	"io"

	"hybridstore/internal/core"
	"hybridstore/internal/flashsim"
	"hybridstore/internal/metrics"
	"hybridstore/internal/obs"
	"hybridstore/internal/storage"
)

// SituationReport is one Table I row of the JSON report. Latency is
// present only when observability is enabled and the row has queries.
type SituationReport struct {
	ID      string           `json:"id"`   // "S1".."S9"
	Name    string           `json:"name"` // "S1(R:mem)" ...
	Count   int64            `json:"count"`
	P       float64          `json:"p"`
	MeanUS  int64            `json:"mean_us"`
	Latency *metrics.Summary `json:"latency,omitempty"`
}

// DeviceReport summarizes one device's counters for the JSON report.
type DeviceReport struct {
	Name        string `json:"name"`
	Reads       int64  `json:"reads"`
	Writes      int64  `json:"writes"`
	Trims       int64  `json:"trims"`
	BytesRead   int64  `json:"bytes_read"`
	BytesWrit   int64  `json:"bytes_written"`
	AvgAccessUS int64  `json:"avg_access_us"`
}

// WearReport summarizes one SSD's wear for the JSON report.
type WearReport struct {
	Erases             int64   `json:"erases"`
	MaxBlockErases     int64   `json:"max_block_erases"`
	GCPageCopies       int64   `json:"gc_page_copies"`
	WriteAmplification float64 `json:"write_amplification"`
	FreeBlocks         int     `json:"free_blocks"`
}

// FaultReport summarizes injected cache-SSD faults and the manager's
// reaction to them, so a faulted run's data loss is fully auditable from
// the report alone.
type FaultReport struct {
	// Injector side (what the device did).
	InjectedReadErrors  int64 `json:"injected_read_errors"`
	InjectedWriteErrors int64 `json:"injected_write_errors"`
	InjectedTrimErrors  int64 `json:"injected_trim_errors"`
	BadExtents          int   `json:"bad_extents"`
	BadExtentHits       int64 `json:"bad_extent_hits"`
	// Manager side (how the cache core degraded).
	SSDReadErrors      int64 `json:"ssd_read_errors"`
	SSDWriteErrors     int64 `json:"ssd_write_errors"`
	SSDTrimErrors      int64 `json:"ssd_trim_errors"`
	ResultsRequeued    int64 `json:"results_requeued"`
	ResultsDropped     int64 `json:"results_dropped"`
	ListsDiscarded     int64 `json:"lists_discarded"`
	ExtentsQuarantined int64 `json:"extents_quarantined"`
	QuarantinedBytes   int64 `json:"quarantined_bytes"`
	BreakerTrips       int64 `json:"breaker_trips"`
	DegradedServes     int64 `json:"degraded_serves"`
}

// AttribReport is one row of the per-situation latency-attribution table:
// where the situation's total simulated time went, by component.
type AttribReport struct {
	Situation string `json:"situation"`
	Queries   int64  `json:"queries"`
	// TotalNS is the situation's summed elapsed time; Components partitions
	// it (component sums equal TotalNS exactly).
	TotalNS    int64      `json:"total_ns"`
	Share      float64    `json:"share"` // fraction of all-situations total
	Components obs.Attrib `json:"components"`
}

// HitRatioReport carries the Fig 14 ratios.
type HitRatioReport struct {
	RC  float64 `json:"rc"`
	IC  float64 `json:"ic"`
	RIC float64 `json:"ric"`
}

// JSONReport is the machine-readable counterpart of System.Report: one
// self-contained document per run, stable enough to diff two runs with
// generic JSON tooling. Schema: see README §Observability.
type JSONReport struct {
	SchemaVersion int    `json:"schema_version"`
	Mode          string `json:"mode"`
	IndexOn       string `json:"index_on"`
	Policy        string `json:"policy,omitempty"`
	FTL           string `json:"cache_ftl,omitempty"`

	Queries        int64   `json:"queries"`
	MeanResponseUS int64   `json:"mean_response_us"`
	ThroughputQPS  float64 `json:"throughput_qps"`

	// ListsPerSSDWrite and ListPaddingShare are the placement regime of the
	// SSD list region: list prefixes per device write (the packing factor)
	// and the share of the bytes written there that was zero padding.
	ListsPerSSDWrite float64 `json:"lists_per_ssd_write"`
	ListPaddingShare float64 `json:"list_padding_share"`

	HitRatios  *HitRatioReport       `json:"hit_ratios,omitempty"`
	Situations []SituationReport     `json:"situations,omitempty"`
	Stats      *core.Stats           `json:"stats,omitempty"`
	Faults     *FaultReport          `json:"faults,omitempty"`
	Devices    []DeviceReport        `json:"devices"`
	Wear       map[string]WearReport `json:"wear,omitempty"`
	// Latency summarizes every observed query's latency, and Series holds
	// the Samples taken every SampleEvery queries (observability only).
	Latency *metrics.Summary `json:"latency,omitempty"`
	Series  []obs.Sample     `json:"series,omitempty"`
	Traces  int64            `json:"traces,omitempty"`
	// Attribution is the per-situation latency breakdown, present when
	// observability is enabled and at least one query was attributed.
	Attribution []AttribReport `json:"attribution,omitempty"`
}

// jsonReportSchemaVersion bumps when the report layout changes shape.
const jsonReportSchemaVersion = 4

// BuildReport assembles the JSON report from the current system state.
func (s *System) BuildReport() *JSONReport {
	r := &JSONReport{
		SchemaVersion: jsonReportSchemaVersion,
		Mode:          s.cfg.Mode.String(),
		IndexOn:       s.cfg.IndexOn.String(),
	}
	if s.cfg.Mode == CacheTwoLevel {
		r.FTL = s.cfg.CacheFTL.String()
	}

	if s.Manager != nil {
		st := s.Manager.Stats()
		r.Policy = s.Manager.Policy().String()
		r.Queries = st.Queries
		r.MeanResponseUS = metrics.RoundUS(st.MeanQueryTime())
		r.ThroughputQPS = st.Throughput()
		r.HitRatios = &HitRatioReport{
			RC:  st.ResultHitRatio(),
			IC:  st.ListHitRatio(),
			RIC: st.CombinedHitRatio(),
		}
		r.ListsPerSSDWrite, r.ListPaddingShare = st.ListsPerSSDWrite(), st.ListPaddingShare()
		r.Stats = &st
		for _, row := range st.Situations.Table() {
			sr := SituationReport{
				ID:     fmt.Sprintf("S%d", int(row.Sit)+1),
				Name:   row.Sit.String(),
				Count:  row.Count,
				P:      row.P,
				MeanUS: metrics.RoundUS(row.MeanTime),
			}
			if s.obs != nil && row.Count > 0 {
				lat := s.obs.SituationLatency(row.Sit)
				sr.Latency = &lat
			}
			r.Situations = append(r.Situations, sr)
		}
	}

	if st := r.Stats; s.CacheFaults != nil && st != nil {
		fs := s.CacheFaults.FaultStats()
		r.Faults = &FaultReport{
			InjectedReadErrors:  fs.ReadErrors,
			InjectedWriteErrors: fs.WriteErrors,
			InjectedTrimErrors:  fs.TrimErrors,
			BadExtents:          fs.BadExtents,
			BadExtentHits:       fs.BadExtentHits,
			SSDReadErrors:       st.SSDReadErrors,
			SSDWriteErrors:      st.SSDWriteErrors,
			SSDTrimErrors:       st.SSDTrimErrors,
			ResultsRequeued:     st.ResultsRequeued,
			ResultsDropped:      st.ResultsDropped,
			ListsDiscarded:      st.ListsDiscarded,
			ExtentsQuarantined:  st.ExtentsQuarantined,
			QuarantinedBytes:    st.QuarantinedBytes,
			BreakerTrips:        st.BreakerTrips,
			DegradedServes:      st.DegradedServes,
		}
	}

	device := func(name string, st storage.DeviceStats) {
		r.Devices = append(r.Devices, DeviceReport{
			Name:        name,
			Reads:       st.Reads,
			Writes:      st.Writes,
			Trims:       st.Trims,
			BytesRead:   st.BytesRead,
			BytesWrit:   st.BytesWrit,
			AvgAccessUS: metrics.RoundUS(st.AvgAccessTime()),
		})
	}
	wear := map[string]WearReport{}
	ssd := func(name string, d interface {
		Stats() storage.DeviceStats
		Wear() flashsim.WearStats
	}) {
		device(name, d.Stats())
		w := d.Wear()
		wear[name] = WearReport{
			Erases: w.TotalErases, MaxBlockErases: w.MaxBlockErases,
			GCPageCopies: w.GCPageCopies, WriteAmplification: w.WriteAmplification,
			FreeBlocks: w.FreeBlocks,
		}
	}
	if s.HDD != nil {
		device("hdd", s.HDD.Stats())
	}
	if s.IndexSSD != nil {
		ssd("index-ssd", s.IndexSSD)
	}
	if s.CacheSSD != nil {
		ssd("cache-ssd", s.CacheSSD)
	}
	if len(wear) > 0 {
		r.Wear = wear
	}

	if s.obs != nil {
		lat := s.obs.OverallLatency()
		r.Latency = &lat
		r.Series = s.obs.Series()
		r.Traces = s.obs.Tracer.Completed()
		rows := s.obs.Profile().Rows()
		var grand int64
		for _, row := range rows {
			grand += row.ElapsedNS
		}
		for _, row := range rows {
			ar := AttribReport{
				Situation:  row.Situation,
				Queries:    row.Queries,
				TotalNS:    row.ElapsedNS,
				Components: row.Attrib,
			}
			if grand > 0 {
				ar.Share = float64(row.ElapsedNS) / float64(grand)
			}
			r.Attribution = append(r.Attribution, ar)
		}
		if s.Manager == nil {
			r.Queries = s.obs.Queries()
			r.MeanResponseUS = metrics.USDuration(lat.Mean).Microseconds()
		}
	}
	return r
}

// WriteJSONReport writes the indented JSON report to w.
func (s *System) WriteJSONReport(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.BuildReport())
}
