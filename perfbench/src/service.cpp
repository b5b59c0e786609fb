// serve_resident: compsynth_serve on the SWAN sketch, driven over its
// line-delimited JSON protocol by simulated architects in one process. One
// client on one connection steps its live sessions round-robin in a closed
// loop: answer the pending pair under the session's latent target, then
// long-poll `next` for the following pair. When a session completes, its
// slot creates the next session of the workload's stream. The live sessions
// stay within the daemon's resident slots, so no live session is swapped
// out (only completed ones age out), and every answer past a session's
// initial ranking runs a SWAN advance in the daemon.
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "bench.h"
#include "obs/trace.h"
#include "oracle/oracle.h"
#include "serve/line_client.h"
#include "serve/protocol.h"
#include "serve/session_host.h"
#include "session/snapshot.h"
#include "sketch/eval.h"
#include "solver/grid_finder.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace serve = compsynth::serve;
namespace obs = compsynth::obs;
namespace oracle = compsynth::oracle;

constexpr int kLongPollMs = 30000;

constexpr const char* kSketchFile = "swan.sketch";
constexpr int kMaxActive = 64;  // the daemon's default resident slots
constexpr int kLiveSessions = 8;
/// One daemon advance worker and one client. With two of each, the daemon
/// still used one core (its CPU per wall stayed at 0.97), each client's
/// answers waited on the other's advances, the median turnaround doubled,
/// and its quartile spread over ten runs reached 0.42 of the median.
constexpr int kWorkers = 1;
/// An untraced run is split into this many windows, each on a fresh daemon,
/// and their samples are pooled. One daemon process runs faster or slower
/// than the next (the four windows of one run made 358-484 answers per
/// second); over five seeds run alternately, pooling four daemons gave a
/// quartile spread of 0.17 in turnaround_s.p50 against 0.32 with one.
constexpr int kWindows = 4;
/// Session-stream offset between windows.
constexpr std::size_t kStreamStride = 1000000;

/// The daemon as a child process: started with its stdout on a pipe so the
/// "listening on" line can be awaited, stopped with a `shutdown` request.
class Daemon {
 public:
  Daemon(const Options& opt, const std::string& root)
      : endpoint_("unix:" + root + ".sock") {
    fs::remove(root + ".sock");
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    const std::vector<std::string> argv = {
        opt.serve_bin, "--listen", endpoint_, "--root", root,
        "--sketch", opt.sketch_dir + "/" + kSketchFile,
        "--max-active", std::to_string(kMaxActive),
        "--workers", std::to_string(kWorkers)};
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    started_ = now_s();
    const int rc = posix_spawn(&pid_, args[0], &fa, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    out_ = fds[0];
    if (rc != 0) {
      close(out_);
      throw std::runtime_error("cannot start " + opt.serve_bin);
    }
    await_listening();
  }

  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (out_ >= 0) close(out_);
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& endpoint() const { return endpoint_; }

  /// Sends `shutdown`, waits for the exit and returns the daemon's peak RSS
  /// (MiB) and CPU seconds per second of its lifetime.
  std::pair<double, double> stop() {
    serve::LineClient client(client_config(endpoint_));
    serve::Request req;
    req.verb = serve::Verb::kShutdown;
    client.request(serve::render_request(req));
    int status = 0;
    rusage ru{};
    const double deadline = now_s() + 60;
    pid_t got = 0;
    while ((got = wait4(pid_, &status, WNOHANG, &ru)) == 0 && now_s() < deadline) {
      usleep(2000);
    }
    if (got != pid_) throw std::runtime_error("daemon did not stop after shutdown");
    const double lifetime = now_s() - started_;
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("daemon exited abnormally");
    }
    return {static_cast<double>(ru.ru_maxrss) / 1024.0, cpu_s(ru) / lifetime};
  }

  static serve::LineClientConfig client_config(const std::string& endpoint) {
    serve::LineClientConfig c;
    c.endpoint = endpoint;
    c.io_timeout_s = 120;
    return c;
  }

 private:
  void await_listening() {
    std::string buf;
    const double deadline = now_s() + 60;
    while (buf.find('\n') == std::string::npos) {
      pollfd p{out_, POLLIN, 0};
      const int wait_ms = static_cast<int>((deadline - now_s()) * 1000);
      if (wait_ms <= 0 || poll(&p, 1, wait_ms) <= 0) {
        throw std::runtime_error("daemon did not start listening");
      }
      char chunk[256];
      const ssize_t n = read(out_, chunk, sizeof chunk);
      if (n <= 0) throw std::runtime_error("daemon exited before listening");
      buf.append(chunk, static_cast<std::size_t>(n));
    }
    if (buf.rfind("listening on ", 0) != 0) {
      throw std::runtime_error("unexpected daemon output: " + buf);
    }
  }

  std::string endpoint_;
  pid_t pid_ = -1;
  int out_ = -1;
  double started_ = 0;
};

/// One live session slot of a client thread.
struct Slot {
  bool live = false;
  std::size_t index = 0;  // in the workload's session stream
  std::string id;
  SessionSpec spec;
  long answers = 0;
  obs::JsonObject pending;  // the last `next` response: the pair to answer
};

/// A completed session, checked after the run.
struct Completed {
  std::string id;
  std::size_t index = 0;
  long answers = 0;
  std::string status;
  std::string objective;
};

/// What the client saw.
struct ClientLog {
  Spans spans;
  Samples turnaround, rtt_create, rtt_answer, rtt_next;
  std::vector<Completed> completed;
  std::vector<std::string> requests;  // traced runs: every request line sent
  std::vector<std::string> errors;
  long answers = 0;
  long checks = 0;
};

std::string field_str(const obs::JsonObject& o, const char* key) {
  const auto it = o.find(key);
  return it != o.end() && it->second.kind == obs::JsonValue::Kind::kString
             ? it->second.str
             : std::string();
}

double field_num(const obs::JsonObject& o, const char* key) {
  const auto it = o.find(key);
  return it != o.end() && it->second.kind == obs::JsonValue::Kind::kNumber
             ? it->second.num
             : -1;
}

class Client {
 public:
  Client(const Options& opt, const sketch::Sketch& sk, const std::string& endpoint,
         ClientLog& log)
      : opt_(opt), sk_(sk), conn_(Daemon::client_config(endpoint)), log_(log) {}

  /// Steps kLiveSessions slots round-robin until `deadline`; new sessions
  /// take spec indices first, first + 1, ...
  void run(std::size_t first, double deadline) {
    std::vector<Slot> slots(kLiveSessions);
    std::size_t next_spec = first;
    while (now_s() < deadline) {
      for (Slot& s : slots) {
        if (now_s() >= deadline) break;
        if (!s.live) {
          s = Slot{};
          s.live = true;
          s.index = next_spec++;
          s.id = "s" + std::to_string(s.index);
          s.spec = session_spec(sk_, opt_.seed, s.index);
          if (!create(s)) s.live = false;
          continue;
        }
        step(s);
      }
    }
  }

 private:
  std::optional<obs::JsonObject> request(const serve::Request& req, Samples& rtt,
                                         const char* span, int parent) {
    const std::string line = serve::render_request(req);
    if (log_.spans.on()) log_.requests.push_back(line);
    const Scope scope(log_.spans, span, parent);
    const double t0 = now_s();
    const std::string response = conn_.request(line);
    rtt.add(now_s() - t0);
    ++log_.checks;
    std::optional<obs::JsonObject> parsed = obs::parse_flat_json(response);
    if (!parsed || parsed->count("ok") == 0 || !parsed->at("ok").b) {
      log_.errors.push_back(std::string(span) + ": " + response);
      return std::nullopt;
    }
    return parsed;
  }

  /// Long-polls `next` until the session has a pending pair or is done.
  std::optional<obs::JsonObject> poll_next(const Slot& s, int parent) {
    serve::Request req;
    req.verb = serve::Verb::kNext;
    req.session = s.id;
    req.wait_ms = kLongPollMs;
    for (;;) {
      std::optional<obs::JsonObject> r = request(req, log_.rtt_next, "rpc.next", parent);
      if (!r || field_str(*r, "phase") != "advancing") return r;
    }
  }

  bool create(Slot& s) {
    const int root = log_.spans.open("first_pair", -1);
    serve::Request req;
    req.verb = serve::Verb::kCreate;
    req.session = s.id;
    req.seed = s.spec.seed;
    std::optional<obs::JsonObject> r =
        request(req, log_.rtt_create, "rpc.create", root);
    if (r) r = poll_next(s, root);
    log_.spans.close(root);
    if (r) handle(s, *r);
    return r.has_value();
  }

  /// Answers the pending pair of `s` and fetches the next one.
  void step(Slot& s) {
    const auto a = serve::decode_metrics(field_str(s.pending, "a"));
    const auto b = serve::decode_metrics(field_str(s.pending, "b"));
    const double va = compsynth::sketch::eval(sk_, s.spec.target, *a);
    const double vb = compsynth::sketch::eval(sk_, s.spec.target, *b);
    serve::Request req;
    req.verb = serve::Verb::kAnswer;
    req.session = s.id;
    req.index = static_cast<long>(field_num(s.pending, "index"));
    // The ground-truth oracle's rule, with FinderConfig's tie tolerance.
    req.answer = va > vb + 1e-4   ? oracle::Preference::kFirst
                 : vb > va + 1e-4 ? oracle::Preference::kSecond
                                  : oracle::Preference::kTie;
    const double t0 = now_s();
    const int root = log_.spans.open("turnaround", -1);
    std::optional<obs::JsonObject> r =
        request(req, log_.rtt_answer, "rpc.answer", root);
    if (r) r = poll_next(s, root);
    log_.spans.close(root);
    if (!r) {
      s.live = false;
      return;
    }
    log_.turnaround.add(now_s() - t0);
    ++log_.answers;
    ++s.answers;
    handle(s, *r);
  }

  /// Validates a `next` response and records the session's progress.
  void handle(Slot& s, const obs::JsonObject& r) {
    s.pending = r;
    const std::string phase = field_str(r, "phase");
    ++log_.checks;
    if (phase == "done") {
      log_.completed.push_back({s.id, s.index, s.answers, field_str(r, "status"),
                                field_str(r, "objective")});
      s.live = false;
      return;
    }
    const auto a = serve::decode_metrics(field_str(r, "a"));
    const auto b = serve::decode_metrics(field_str(r, "b"));
    const bool in_box =
        a && b && a->size() == sk_.metrics().size() &&
        b->size() == sk_.metrics().size() &&
        compsynth::solver::domain_contains(sk_, {}, *a) &&
        compsynth::solver::domain_contains(sk_, {}, *b) && *a != *b;
    if (phase != "waiting" || !in_box || field_num(r, "index") != s.answers) {
      log_.errors.push_back("bad pending query for " + s.id);
      s.live = false;
    }
  }

  const Options& opt_;
  const sketch::Sketch& sk_;
  serve::LineClient conn_;
  ClientLog& log_;
};

compsynth::serve::HostStats daemon_stats(const std::string& endpoint) {
  serve::LineClient client(Daemon::client_config(endpoint));
  serve::Request req;
  req.verb = serve::Verb::kInspect;
  const auto r = obs::parse_flat_json(client.request(serve::render_request(req)));
  if (!r) throw std::runtime_error("daemon inspect failed");
  compsynth::serve::HostStats s;
  s.swaps = static_cast<long>(field_num(*r, "swaps"));
  s.rehydrations = static_cast<long>(field_num(*r, "rehydrations"));
  s.advances = static_cast<long>(field_num(*r, "advances"));
  return s;
}

/// One daemon's run: start, drive for `seconds`, stop.
struct Window {
  ClientLog log;
  double wall = 0;
  double client_cpu = 0;  // this process, over the window
  double peak_rss_mb = 0;
  double daemon_cpu_per_wall = 0;
  compsynth::serve::HostStats stats;
  std::string root;
};

class ServeWorkload {
 public:
  explicit ServeWorkload(const Options& opt)
      : opt_(opt), sk_(load_sketch(opt.sketch_dir + "/" + kSketchFile)), eq_(sk_) {}

  Result run() {
    Result out;
    Samples setup;
    for (int i = 0; i < 21; ++i) {
      const std::string root = opt_.work_dir + "/setup" + std::to_string(i);
      const double t0 = now_s();
      Daemon d(opt_, root);
      daemon_stats(d.endpoint());  // the first connect and round trip
      setup.add(now_s() - t0);
      d.stop();
    }
    out.set("setup_s", setup.median(), "s");
    if (!opt_.trace) {
      std::vector<Window> ws;
      for (int k = 0; k < kWindows; ++k) {
        ws.push_back(window(false, opt_.seconds / kWindows, k));
      }
      report_end_to_end(ws, out);
    } else {
      std::vector<Window> plain, traced;
      plain.push_back(window(false, opt_.seconds / 2, 0));
      traced.push_back(window(true, opt_.seconds / 2, 1));
      // Both windows are checked; run.py keeps only the per-layer metrics.
      report_end_to_end(plain, out);
      report_end_to_end(traced, out);
      report_layers(plain[0], traced[0], out);
    }
    return out;
  }

 private:
  /// Window `k` runs a fresh daemon on sessions k * kStreamStride, ... of
  /// the workload's stream, so no two windows share a session.
  Window window(bool traced, double seconds, int k) {
    Window w;
    w.root = opt_.work_dir + "/window" + std::to_string(k);
    Daemon d(opt_, w.root);
    const compsynth::serve::HostStats before = daemon_stats(d.endpoint());
    w.log.spans = Spans(traced);
    {
      Client client(opt_, sk_, d.endpoint(), w.log);
      const double c0 = cpu_s(RUSAGE_SELF);
      const double t0 = now_s();
      try {
        client.run(static_cast<std::size_t>(k) * kStreamStride, t0 + seconds);
      } catch (const std::exception& ex) {
        w.log.errors.push_back(ex.what());
      }
      w.wall = now_s() - t0;
      w.client_cpu = cpu_s(RUSAGE_SELF) - c0;
    }
    const compsynth::serve::HostStats after = daemon_stats(d.endpoint());
    w.stats.swaps = after.swaps - before.swaps;
    w.stats.rehydrations = after.rehydrations - before.rehydrations;
    w.stats.advances = after.advances - before.advances;
    std::tie(w.peak_rss_mb, w.daemon_cpu_per_wall) = d.stop();
    return w;
  }

  /// The newest snapshot of a session directory (names carry the
  /// zero-padded iteration).
  static std::optional<fs::path> newest_snapshot(const fs::path& dir) {
    std::optional<fs::path> best;
    for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
      if (e.path().extension() == compsynth::session::kSnapshotExtension &&
          (!best || e.path() > *best)) {
        best = e.path();
      }
    }
    return best;
  }

  /// Pools the windows' samples and counts into the end-to-end metrics.
  void report_end_to_end(const std::vector<Window>& ws, Result& out) {
    Samples turnaround, iters;
    long answers = 0, completed = 0, completed_answers = 0, converged = 0,
         correct = 0, rehydrations = 0;
    double wall = 0, peak_rss_mb = 0;
    for (const Window& w : ws) {
      const ClientLog& log = w.log;
      out.attempted += log.checks;
      for (const std::string& e : log.errors) out.fail(e);
      turnaround.append(log.turnaround);
      answers += log.answers;
      completed += static_cast<long>(log.completed.size());
      for (const Completed& c : log.completed) {
        completed_answers += c.answers;
        ++out.attempted;
        if (c.status != "converged") {
          out.fail(c.id + " ended " + c.status);
          continue;
        }
        ++converged;
        const std::optional<sketch::HoleAssignment> obj = eq_.parse_objective(c.objective);
        ++out.attempted;
        if (!obj) {
          out.fail(c.id + ": objective is not an instance of the sketch");
          continue;
        }
        if (eq_.equivalent(*obj, session_spec(sk_, opt_.seed, c.index).target)) ++correct;
        // The session's mean solver time per iteration inside the daemon,
        // from its final checkpoint.
        const std::optional<fs::path> snap = newest_snapshot(fs::path(w.root) / c.id);
        ++out.attempted;
        if (!snap) {
          out.fail(c.id + ": completed without a checkpoint");
          continue;
        }
        const compsynth::synth::SessionState st =
            compsynth::session::read_file(snap->string()).state;
        iters.add(st.total_solver_seconds / st.iterations);
      }
      ++out.attempted;
      if (w.stats.rehydrations != 0) {
        out.fail("a live serve_resident session was swapped out");
      }
      wall += w.wall;
      peak_rss_mb = std::max(peak_rss_mb, w.peak_rss_mb);
      rehydrations += w.stats.rehydrations;
    }
    out.set("sessions_per_s", static_cast<double>(completed) / wall, "1/s");
    out.set_pct("iter_s.p50", iters, 0.5, "s");
    out.set_pct("iter_s.p90", iters, 0.9, "s");
    out.set("queries_per_session",
            static_cast<double>(completed_answers) / static_cast<double>(completed),
            "count");
    out.set("answers_per_s", static_cast<double>(answers) / wall, "1/s");
    out.set_pct("turnaround_s.p50", turnaround, 0.5, "s");
    out.set_pct("turnaround_s.p99", turnaround, 0.99, "s");
    out.set("peak_rss_mb", peak_rss_mb, "MB");
    out.set("correct_frac",
            converged == 0 ? 0.0
                           : static_cast<double>(correct) / static_cast<double>(converged),
            "fraction");
    out.detail["windows"] = static_cast<double>(ws.size());
    out.detail["sessions"] = static_cast<double>(completed);
    out.detail["answers"] = static_cast<double>(answers);
    out.detail["inequivalent_sessions"] = static_cast<double>(converged - correct);
    out.detail["wall_s"] = wall;
    out.detail["rehydrations"] = static_cast<double>(rehydrations);
    out.detail["cpu_children_s"] = cpu_s(RUSAGE_CHILDREN);
    for (std::size_t k = 0; k < ws.size(); ++k) {
      const Window& w = ws[k];
      const std::string key = "window" + std::to_string(k) + ".";
      out.detail[key + "turnaround_s.p50"] = w.log.turnaround.median();
      out.detail[key + "answers_per_s"] = static_cast<double>(w.log.answers) / w.wall;
      out.detail[key + "daemon_cpu_per_wall"] = w.daemon_cpu_per_wall;
      out.detail[key + "cpu_self_s"] = w.client_cpu;
      out.detail[key + "swaps"] = static_cast<double>(w.stats.swaps);
      out.detail[key + "advances"] = static_cast<double>(w.stats.advances);
    }
  }

  void report_layers(const Window& plain, const Window& w, Result& out) {
    const auto rate = [](const Window& x) {
      return static_cast<double>(x.log.answers) / x.wall;
    };
    out.set("trace.overhead_frac", (rate(plain) - rate(w)) / rate(plain), "fraction");

    const ClientLog& log = w.log;
    out.set_pct("serve.rtt_s.create.p50", log.rtt_create, 0.5, "s");
    out.set_pct("serve.rtt_s.answer.p50", log.rtt_answer, 0.5, "s");
    out.set_pct("serve.rtt_s.next.p50", log.rtt_next, 0.5, "s");
    const auto n = static_cast<double>(log.answers);
    out.set("serve.advances_per_answer", static_cast<double>(w.stats.advances) / n, "ratio");
    out.set("serve.swaps_per_answer", static_cast<double>(w.stats.swaps) / n, "ratio");
    out.set("serve.rehydrations_per_answer",
            static_cast<double>(w.stats.rehydrations) / n, "ratio");
    out.set("serve.daemon_cpu_per_wall", w.daemon_cpu_per_wall, "ratio");

    // Replays: the run's request lines through the protocol parser, and its
    // snapshots through the session and solver layers.
    const double p0 = now_s();
    for (const std::string& line : log.requests) {
      if (!std::holds_alternative<serve::Request>(serve::parse_request(line))) {
        out.fail("request line does not parse: " + line);
      }
    }
    out.set("serve.protocol_parse_s",
            (now_s() - p0) / static_cast<double>(std::max<std::size_t>(1, log.requests.size())),
            "s");
    // Each copy goes to a new name in the session's directory, as the daemon
    // writes its checkpoints: renaming over an existing file makes ext4
    // start writing the new file's data back first (auto_da_alloc), a cost
    // the daemon's checkpoint writes never pay.
    Samples read_s, write_s, bytes, restore_s;
    for (const fs::directory_entry& dir : fs::directory_iterator(w.root)) {
      if (!dir.is_directory()) continue;
      const std::optional<fs::path> snap = newest_snapshot(dir.path());
      if (!snap) continue;
      const std::string copy = (dir.path() / "replay.copy").string();
      double t0 = now_s();
      const compsynth::session::Snapshot s = compsynth::session::read_file(snap->string());
      read_s.add(now_s() - t0);
      bytes.add(static_cast<double>(fs::file_size(*snap)));
      t0 = now_s();
      compsynth::session::write_file(s, copy);
      write_s.add(now_s() - t0);
      ++out.attempted;
      if (compsynth::session::read_file(copy).state.finder_state != s.state.finder_state) {
        out.fail("snapshot does not round-trip");
      }
      compsynth::solver::GridFinderConfig gc;
      gc.threads = 1;  // the daemon's --grid-threads default
      compsynth::solver::GridFinder finder(sk_, gc);
      t0 = now_s();
      finder.restore_state(s.state.finder_state);
      restore_s.add(now_s() - t0);
    }
    out.set_pct("session.snapshot_read_s.p50", read_s, 0.5, "s");
    out.set_pct("session.snapshot_write_s.p50", write_s, 0.5, "s");
    out.set_pct("session.snapshot_bytes.p50", bytes, 0.5, "bytes");
    out.set_pct("solver.restore_s.p50", restore_s, 0.5, "s");
    report_spans(summarize(log.spans.recs()), out);
  }

  const Options& opt_;
  sketch::Sketch sk_;
  Equivalence eq_;
};

}  // namespace

Result run_service(const Options& opt) { return ServeWorkload(opt).run(); }

}  // namespace perfbench
