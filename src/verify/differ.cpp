#include "verify/differ.hpp"

#include <sstream>
#include <stdexcept>

#include "core/sharded_engine.hpp"
#include "dram/energy.hpp"
#include "load/stream_cache.hpp"
#include "multichannel/memory_system.hpp"
#include "obs/prof.hpp"

namespace mcm::verify {
namespace {

/// Frame workloads in the stream-cache shape the engines consume.
std::vector<load::CachedWorkload> build_workloads(const Scenario& s,
                                                  std::uint32_t burst_bytes) {
  std::vector<load::CachedWorkload> out;
  out.reserve(s.frames.size());
  for (const ScenarioFrame& f : s.frames) {
    load::CachedWorkload wl;
    wl.burst_bytes = burst_bytes;
    for (const ScenarioStage& st : f.stages) {
      load::CachedStage cs;
      cs.name = st.name;
      cs.source_id = st.source;
      cs.reqs = st.reqs;
      wl.total_requests += st.reqs.size();
      wl.stages.push_back(std::move(cs));
    }
    out.push_back(std::move(wl));
  }
  return out;
}

std::string describe_event(const obs::TraceEvent& e) {
  std::ostringstream os;
  if (e.kind == obs::TraceEvent::Kind::kCommand) {
    os << "cmd " << to_string(e.cmd) << " at " << e.at.ps() << "ps bank "
       << e.bank << " row " << e.row;
  } else {
    os << "span " << (e.is_write ? "WR" : "RD") << " addr " << e.addr
       << " arrival " << e.arrival.ps() << "ps first_cmd " << e.first_cmd.ps()
       << "ps done " << e.done.ps() << "ps hit " << e.row_hit;
  }
  return os.str();
}

bool events_equal(const obs::TraceEvent& a, const obs::TraceEvent& b) {
  if (a.kind != b.kind) return false;
  if (a.kind == obs::TraceEvent::Kind::kCommand) {
    return a.at == b.at && a.cmd == b.cmd && a.bank == b.bank && a.row == b.row;
  }
  return a.addr == b.addr && a.is_write == b.is_write && a.arrival == b.arrival &&
         a.first_cmd == b.first_cmd && a.done == b.done && a.row_hit == b.row_hit;
}

template <typename T>
bool report_field(std::ostringstream& os, const char* name, const T& prod,
                  const T& ref) {
  if (prod == ref) return false;
  os << name << ": production " << prod << " vs reference " << ref;
  return true;
}

template <typename T>
bool report_vec(std::ostringstream& os, const char* name,
                const std::vector<T>& prod, const std::vector<T>& ref) {
  if (prod == ref) return false;
  os << name;
  if (prod.size() != ref.size()) {
    os << " size: production " << prod.size() << " vs reference " << ref.size();
    return true;
  }
  for (std::size_t i = 0; i < prod.size(); ++i) {
    if (prod[i] == ref[i]) continue;
    os << "[" << i << "]: production " << prod[i] << " vs reference " << ref[i];
    break;
  }
  return true;
}

}  // namespace

Outcome run_production(const Scenario& s) {
  static const obs::prof::PhaseId kProd =
      obs::prof::phase_id("verify/production");
  obs::prof::ScopedTimer span(kProd);
  const multichannel::SystemConfig cfg = s.system_config();
  multichannel::MemorySystem sys(cfg);

  std::vector<obs::TraceSpool> spools(sys.channel_count());
  for (std::uint32_t c = 0; c < sys.channel_count(); ++c) {
    sys.attach_trace(&spools[c], c);
  }

  const std::vector<load::CachedWorkload> workloads =
      build_workloads(s, cfg.device.org.bytes_per_burst());
  std::vector<const load::CachedWorkload*> frames;
  frames.reserve(workloads.size());
  for (const load::CachedWorkload& wl : workloads) frames.push_back(&wl);

  const Time period{s.period_ps};
  const core::ShardedRunOutput run =
      s.legacy_feed ? core::run_sequential_frames(sys, frames, period)
                    : core::run_sharded_frames(sys, frames, period, s.sim_threads);

  const Time window =
      max(run.end_time, period * static_cast<std::int64_t>(s.frames.size()));
  sys.finalize(window);

  Outcome o;
  o.end_time_ps = run.end_time.ps();
  o.window_ps = window.ps();
  for (const Time t : run.per_frame_access) o.per_frame_access_ps.push_back(t.ps());
  for (std::size_t i = 0; i < run.first_frame_stages.size(); ++i) {
    o.stage_names.push_back(run.first_frame_stages[i].first);
    o.stage_bytes.push_back(run.first_frame_stages[i].second);
    o.stage_completed_ps.push_back(run.first_frame_completed[i].ps());
  }

  o.channels.reserve(sys.channel_count());
  for (std::uint32_t c = 0; c < sys.channel_count(); ++c) {
    const channel::Channel& ch = sys.channel(c);
    const ctrl::ControllerStats& st = ch.stats();
    const dram::EnergyLedger& led = ch.controller().ledger();
    ChannelOutcome co;
    co.reads = st.reads;
    co.writes = st.writes;
    co.row_hits = st.row_hits;
    co.row_misses = st.row_misses;
    co.row_conflicts = st.row_conflicts;
    co.activates = st.activates;
    co.precharges = st.precharges;
    co.refreshes = st.refreshes;
    co.bytes = st.bytes;
    co.n_act = led.n_act;
    co.n_rd = led.n_rd;
    co.n_wr = led.n_wr;
    co.n_ref = led.n_ref;
    co.n_powerdown_entries = led.n_powerdown_entries;
    co.n_selfrefresh_entries = led.n_selfrefresh_entries;
    co.t_active_standby_ps = led.t_active_standby.ps();
    co.t_precharge_standby_ps = led.t_precharge_standby.ps();
    co.t_active_powerdown_ps = led.t_active_powerdown.ps();
    co.t_powerdown_ps = led.t_powerdown.ps();
    co.t_selfrefresh_ps = led.t_selfrefresh.ps();
    co.route_count = sys.route_counts()[c];
    co.bank_accesses = ch.controller().bank_accesses();
    co.events = spools[c].events();
    co.energy_total_pj = ch.energy_model().tally(led).total_pj();
    o.channels.push_back(std::move(co));
  }
  // Spools must outlive finalize (it emits trailing PRE/REF/PDE events), so
  // events were copied only after finalize above.
  for (std::uint32_t c = 0; c < sys.channel_count(); ++c) {
    sys.attach_trace(nullptr, c);
  }
  return o;
}

Outcome reference_outcome(const Scenario& s, const RefRunOutput& ref) {
  const multichannel::SystemConfig cfg = s.system_config();

  Outcome o;
  o.end_time_ps = ref.end_time_ps;
  o.window_ps = ref.window_ps;
  o.per_frame_access_ps = ref.per_frame_access_ps;
  o.stage_names = ref.stage_names;
  o.stage_bytes = ref.stage_bytes;
  o.stage_completed_ps = ref.stage_completed_ps;
  o.channels.reserve(ref.channels.size());
  for (std::size_t c = 0; c < ref.channels.size(); ++c) {
    const RefChannelResult& rc = ref.channels[c];
    // Heterogeneous systems price each channel with its own class tables.
    const dram::DeviceSpec dev = cfg.channel_device(static_cast<std::uint32_t>(c));
    const dram::EnergyModel energy(
        dev.power, dram::DerivedTiming::derive(dev.timing, cfg.freq));
    ChannelOutcome co;
    co.reads = rc.reads;
    co.writes = rc.writes;
    co.row_hits = rc.row_hits;
    co.row_misses = rc.row_misses;
    co.row_conflicts = rc.row_conflicts;
    co.activates = rc.activates;
    co.precharges = rc.precharges;
    co.refreshes = rc.refreshes;
    co.bytes = rc.bytes;
    co.n_act = rc.n_act;
    co.n_rd = rc.n_rd;
    co.n_wr = rc.n_wr;
    co.n_ref = rc.n_ref;
    co.n_powerdown_entries = rc.n_powerdown_entries;
    co.n_selfrefresh_entries = rc.n_selfrefresh_entries;
    co.t_active_standby_ps = rc.t_active_standby_ps;
    co.t_precharge_standby_ps = rc.t_precharge_standby_ps;
    co.t_active_powerdown_ps = rc.t_active_powerdown_ps;
    co.t_powerdown_ps = rc.t_powerdown_ps;
    co.t_selfrefresh_ps = rc.t_selfrefresh_ps;
    co.route_count = rc.route_count;
    co.bank_accesses = rc.bank_accesses;
    co.events = rc.events;

    dram::EnergyLedger led;
    led.n_act = rc.n_act;
    led.n_rd = rc.n_rd;
    led.n_wr = rc.n_wr;
    led.n_ref = rc.n_ref;
    led.n_powerdown_entries = rc.n_powerdown_entries;
    led.n_selfrefresh_entries = rc.n_selfrefresh_entries;
    led.t_active_standby = Time{rc.t_active_standby_ps};
    led.t_precharge_standby = Time{rc.t_precharge_standby_ps};
    led.t_active_powerdown = Time{rc.t_active_powerdown_ps};
    led.t_powerdown = Time{rc.t_powerdown_ps};
    led.t_selfrefresh = Time{rc.t_selfrefresh_ps};
    co.energy_total_pj = energy.tally(led).total_pj();
    o.channels.push_back(std::move(co));
  }
  return o;
}

std::optional<std::string> compare_outcomes(const Outcome& production,
                                            const Outcome& reference) {
  std::ostringstream os;
  if (report_field(os, "channel count", production.channels.size(),
                   reference.channels.size())) {
    return os.str();
  }

  // Event sequences first: they pinpoint the first diverging command edge,
  // which is where a timing bug actually happens; aggregate counters would
  // only say that something, somewhere, differed.
  for (std::size_t c = 0; c < production.channels.size(); ++c) {
    const auto& pe = production.channels[c].events;
    const auto& re = reference.channels[c].events;
    const std::size_t n = pe.size() < re.size() ? pe.size() : re.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (events_equal(pe[i], re[i])) continue;
      os << "channel " << c << " event " << i << ": production ["
         << describe_event(pe[i]) << "] vs reference [" << describe_event(re[i])
         << "]";
      return os.str();
    }
    if (pe.size() != re.size()) {
      os << "channel " << c << " event count: production " << pe.size()
         << " vs reference " << re.size() << "; first extra event ["
         << describe_event(pe.size() > re.size() ? pe[n] : re[n]) << "] from "
         << (pe.size() > re.size() ? "production" : "reference");
      return os.str();
    }
  }

  for (std::size_t c = 0; c < production.channels.size(); ++c) {
    const ChannelOutcome& p = production.channels[c];
    const ChannelOutcome& r = reference.channels[c];
    os << "channel " << c << " ";
#define MCM_VERIFY_FIELD(f) \
  if (report_field(os, #f, p.f, r.f)) return os.str();
    MCM_VERIFY_FIELD(reads)
    MCM_VERIFY_FIELD(writes)
    MCM_VERIFY_FIELD(row_hits)
    MCM_VERIFY_FIELD(row_misses)
    MCM_VERIFY_FIELD(row_conflicts)
    MCM_VERIFY_FIELD(activates)
    MCM_VERIFY_FIELD(precharges)
    MCM_VERIFY_FIELD(refreshes)
    MCM_VERIFY_FIELD(bytes)
    MCM_VERIFY_FIELD(n_act)
    MCM_VERIFY_FIELD(n_rd)
    MCM_VERIFY_FIELD(n_wr)
    MCM_VERIFY_FIELD(n_ref)
    MCM_VERIFY_FIELD(n_powerdown_entries)
    MCM_VERIFY_FIELD(n_selfrefresh_entries)
    MCM_VERIFY_FIELD(t_active_standby_ps)
    MCM_VERIFY_FIELD(t_precharge_standby_ps)
    MCM_VERIFY_FIELD(t_active_powerdown_ps)
    MCM_VERIFY_FIELD(t_powerdown_ps)
    MCM_VERIFY_FIELD(t_selfrefresh_ps)
    MCM_VERIFY_FIELD(route_count)
    MCM_VERIFY_FIELD(energy_total_pj)
#undef MCM_VERIFY_FIELD
    if (report_vec(os, "bank_accesses", p.bank_accesses, r.bank_accesses)) {
      return os.str();
    }
    os.str("");  // channel prefix unused: everything matched
  }

  if (report_field(os, "end_time_ps", production.end_time_ps,
                   reference.end_time_ps)) {
    return os.str();
  }
  if (report_field(os, "window_ps", production.window_ps, reference.window_ps)) {
    return os.str();
  }
  if (report_vec(os, "per_frame_access_ps", production.per_frame_access_ps,
                 reference.per_frame_access_ps)) {
    return os.str();
  }
  if (report_vec(os, "stage_names", production.stage_names,
                 reference.stage_names)) {
    return os.str();
  }
  if (report_vec(os, "stage_bytes", production.stage_bytes,
                 reference.stage_bytes)) {
    return os.str();
  }
  if (report_vec(os, "stage_completed_ps", production.stage_completed_ps,
                 reference.stage_completed_ps)) {
    return os.str();
  }
  return std::nullopt;
}

std::optional<std::string> diff_scenario(const Scenario& s) {
  static const obs::prof::PhaseId kRef =
      obs::prof::phase_id("verify/reference");
  static const obs::prof::PhaseId kCompare =
      obs::prof::phase_id("verify/compare");
  const Outcome prod = run_production(s);
  RefRunOutput ref;
  {
    obs::prof::ScopedTimer span(kRef);
    try {
      ref = run_reference(s);
    } catch (const std::logic_error& e) {
      return std::string("reference invariant: ") + e.what();
    }
  }
  obs::prof::ScopedTimer span(kCompare);
  return compare_outcomes(prod, reference_outcome(s, ref));
}

obs::JsonValue outcome_to_json(const Outcome& o) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc["schema"] = obs::JsonValue{std::string("mcm.verify-outcome/v1")};
  doc["end_time_ps"] = obs::JsonValue{o.end_time_ps};
  doc["window_ps"] = obs::JsonValue{o.window_ps};
  obs::JsonValue& frames = doc["per_frame_access_ps"] = obs::JsonValue::array();
  for (const std::int64_t v : o.per_frame_access_ps) frames.push(obs::JsonValue{v});
  obs::JsonValue& stages = doc["stages"] = obs::JsonValue::array();
  for (std::size_t i = 0; i < o.stage_names.size(); ++i) {
    obs::JsonValue st = obs::JsonValue::object();
    st["name"] = obs::JsonValue{o.stage_names[i]};
    st["bytes"] = obs::JsonValue{o.stage_bytes[i]};
    st["completed_ps"] = obs::JsonValue{o.stage_completed_ps[i]};
    stages.push(std::move(st));
  }
  obs::JsonValue& chans = doc["channels"] = obs::JsonValue::array();
  for (const ChannelOutcome& c : o.channels) {
    obs::JsonValue ch = obs::JsonValue::object();
    ch["reads"] = obs::JsonValue{c.reads};
    ch["writes"] = obs::JsonValue{c.writes};
    ch["row_hits"] = obs::JsonValue{c.row_hits};
    ch["row_misses"] = obs::JsonValue{c.row_misses};
    ch["row_conflicts"] = obs::JsonValue{c.row_conflicts};
    ch["activates"] = obs::JsonValue{c.activates};
    ch["precharges"] = obs::JsonValue{c.precharges};
    ch["refreshes"] = obs::JsonValue{c.refreshes};
    ch["bytes"] = obs::JsonValue{c.bytes};
    ch["events"] = obs::JsonValue{static_cast<std::uint64_t>(c.events.size())};
    ch["route_count"] = obs::JsonValue{c.route_count};
    ch["energy_total_pj"] = obs::JsonValue{c.energy_total_pj};
    obs::JsonValue& banks = ch["bank_accesses"] = obs::JsonValue::array();
    for (const std::uint64_t b : c.bank_accesses) banks.push(obs::JsonValue{b});
    chans.push(std::move(ch));
  }
  return doc;
}

}  // namespace mcm::verify
