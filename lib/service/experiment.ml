(* Experiment E22: measured availability under faults, ETOB vs Paxos.

   One crash+partition schedule, two runs that differ only in the
   replication stack: Algorithm 5 with the committed prefix (speculative
   reads to degrade to) versus the Paxos strong baseline (one view, no
   degradation).  Five replicas; a lossy partition isolates the {3,4}
   minority for [60, 180), and a majority replica crashes at 200 — after
   the heal — to exercise crash-triggered session migration and the retry
   dedup path.

   During the partition, minority-pinned clients of the ETOB stack fail
   their strong (committed-prefix) requests, trip the breaker, and degrade
   to speculative operations that the minority's block leader keeps
   serving; the same clients of the Paxos stack can still read stale state
   but every write needs a majority and dies exhausting its retry budget.
   The availability gate demands the gap be strict.  The remaining gates
   pin the robustness loop itself: retry amplification stays bounded,
   replica-side dedup lets zero duplicate applies through, and the whole
   closed loop is deterministic (same spec + seed -> byte-identical trace
   digest on a rerun).

   This module computes; the callers (bench E22, `ecsim service`) print
   and write files. *)

open Simulator
open Harness

let replicas = 5
let deadline = 280
let blocks = [ [ 0; 1; 2 ]; [ 3; 4 ] ]
let partition_from = 60
let partition_until = 180
let crash_proc = 1
let crash_at_time = 200
let minority = [ 3; 4 ]

(* Measured strictly inside the partition so edge requests straddling the
   cut or the heal don't blur the gap. *)
let probe_from = partition_from + 10
let probe_until = partition_until - 10

let spec =
  { Service_spec.clients = 6;
    arrival = Service_spec.Closed { think = 3 };
    keys = 4;
    skew_pct = 30;
    write_pct = 60;
    req_deadline = 16;
    retries = 3;
    backoff_base = 2;
    backoff_cap = 12;
    jitter_pct = 50;
    queue_limit = 8;
    breaker_k = 2;
    breaker_cooldown = 16;
    strong = true;
    migrate_after = 3;
    window = 20 }

let setup ~seed =
  { (Stacks.default ~n:replicas ~deadline) with
    seed;
    faults =
      Net.lossy_partition
        { blocks; from_time = partition_from; until_time = partition_until };
    pattern =
      Failures.crash_at (Failures.none ~n:replicas) crash_proc crash_at_time;
    omega =
      Stacks.Oracle
        { stabilize_at = partition_until;
          pre = Detectors.Omega.Blockwise blocks } }

type side = {
  s_name : string;
  s_outcome : Runner.outcome;
  s_minority : int * int;
}

type gate = { g_name : string; g_pass : bool; g_detail : string }

type t = {
  etob : side;
  paxos : side;
  gates : gate list;
  pass : bool;
  gc_minor_words : float;
  gc_major_words : float;
}

let side ~name ~seed impl =
  let outcome = Runner.run ~setup:(setup ~seed) ~spec ~impl in
  { s_name = name;
    s_outcome = outcome;
    s_minority =
      Metrics.availability_in outcome.trace ~endpoints:minority
        ~from_time:probe_from ~until_time:probe_until }

let max_amplification = 2.0

(* Exact allocation counters: [Gc.quick_stat] alone only advances at minor
   collections on OCaml 5 (whole minor heaps), so force one first. *)
let gc_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_words)

let run ?(seed = 42) () =
  let minor0, major0 = gc_words () in
  let etob = side ~name:"etob" ~seed Stacks.Algorithm_5 in
  let paxos = side ~name:"paxos" ~seed Stacks.Paxos_baseline in
  let replay = side ~name:"etob-replay" ~seed Stacks.Algorithm_5 in
  let e_avail = Metrics.ratio etob.s_minority in
  let p_avail = Metrics.ratio paxos.s_minority in
  let e_started, e_ok = etob.s_minority in
  let p_started, p_ok = paxos.s_minority in
  let amp = Metrics.amplification etob.s_outcome.report in
  let budget = 1 + spec.retries in
  let max_tries =
    max etob.s_outcome.report.max_attempts paxos.s_outcome.report.max_attempts
  in
  let gates =
    [ { g_name = "availability-gap";
        g_pass = e_started > 0 && p_started > 0 && e_avail > p_avail;
        g_detail =
          Printf.sprintf "minority etob %d/%d (%.2f) vs paxos %d/%d (%.2f)"
            e_ok e_started e_avail p_ok p_started p_avail };
      { g_name = "retry-amplification";
        g_pass = amp <= max_amplification && max_tries <= budget;
        g_detail =
          Printf.sprintf "etob attempts/ok = %.2f (cap %.1f), max tries %d/%d"
            amp max_amplification max_tries budget };
      { g_name = "dedup";
        g_pass = etob.s_outcome.dedup_ok && paxos.s_outcome.dedup_ok;
        g_detail =
          Printf.sprintf
            "zero duplicate applies; %d+%d duplicate deliveries suppressed"
            etob.s_outcome.suppressed paxos.s_outcome.suppressed };
      { g_name = "determinism";
        g_pass = String.equal etob.s_outcome.digest replay.s_outcome.digest;
        g_detail =
          Printf.sprintf "replay digest %s %s" replay.s_outcome.digest
            (if String.equal etob.s_outcome.digest replay.s_outcome.digest then
               "== first run"
             else "!= " ^ etob.s_outcome.digest) } ]
  in
  let minor1, major1 = gc_words () in
  { etob;
    paxos;
    gates;
    pass = List.for_all (fun g -> g.g_pass) gates;
    gc_minor_words = minor1 -. minor0;
    gc_major_words = major1 -. major0 }

(* ------------------------------------------------------------------ *)
(* JSON renderers (callers write the files)                            *)
(* ------------------------------------------------------------------ *)

let side_json s =
  let o = s.s_outcome in
  let r = o.report in
  let started, ok = s.s_minority in
  let lat =
    match r.latency with
    | None -> "null"
    | Some l ->
      Printf.sprintf
        "{ \"count\": %d, \"p50\": %d, \"p95\": %d, \"p99\": %d, \"p999\": %d, \
         \"max\": %d }"
        l.count l.p50 l.p95 l.p99 l.p999 l.max
  in
  Printf.sprintf
    "    { \"impl\": %S, \"requests\": %d, \"ok\": %d, \"failed\": %d,\n\
    \      \"availability\": %.4f, \"minority_started\": %d, \
     \"minority_ok\": %d, \"minority_availability\": %.4f,\n\
    \      \"attempts\": %d, \"retries\": %d, \"amplification\": %.4f, \
     \"max_attempts\": %d,\n\
    \      \"goodput_per_kilotick\": %d, \"sheds\": %d, \
     \"duplicate_submits\": %d, \"migrations\": %d,\n\
    \      \"breaker_opens\": %d, \"strong_ok\": %d, \"weak_ok\": %d,\n\
    \      \"duplicates_delivered\": %d, \"suppressed\": %d, \
     \"dedup_ok\": %b, \"digest\": %S,\n\
    \      \"latency\": %s }"
    s.s_name r.requests r.ok r.failed
    (Metrics.availability r)
    started ok
    (Metrics.ratio s.s_minority)
    r.attempts r.retries
    (Metrics.amplification r)
    r.max_attempts
    (Metrics.goodput_per_kilotick r ~horizon:o.horizon)
    r.sheds r.duplicate_submits r.migrations r.breaker_opens r.strong_ok
    r.weak_ok o.duplicates_delivered o.suppressed o.dedup_ok o.digest lat

let gate_json g =
  Printf.sprintf "    { \"gate\": %S, \"pass\": %b, \"detail\": %S }" g.g_name
    g.g_pass g.g_detail

let to_json t =
  Printf.sprintf
    "{\n\
    \  \"experiment\": \"E22\",\n\
    \  \"replicas\": %d,\n\
    \  \"clients\": %d,\n\
    \  \"deadline\": %d,\n\
    \  \"partition\": [%d, %d],\n\
    \  \"crash\": { \"proc\": %d, \"at\": %d },\n\
    \  \"spec\": %S,\n\
    \  \"sides\": [\n%s\n  ],\n\
    \  \"gates\": [\n%s\n  ],\n\
    \  \"gc_minor_words\": %.0f,\n\
    \  \"gc_major_words\": %.0f,\n\
    \  \"pass\": %b\n\
     }\n"
    replicas spec.clients deadline partition_from partition_until crash_proc
    crash_at_time
    (Service_spec.to_string spec)
    (String.concat ",\n" [ side_json t.etob; side_json t.paxos ])
    (String.concat ",\n" (List.map gate_json t.gates))
    t.gc_minor_words t.gc_major_words t.pass

(* The raw per-request latency series, for the CI failure artifact: enough
   to re-derive any histogram offline. *)
let histogram_json s =
  let lats =
    List.filter_map
      (fun (_, _, output) ->
        match output with
        | Wire.Completed { ok = true; latency; _ } -> Some (string_of_int latency)
        | _ -> None)
      (Trace.outputs s.s_outcome.trace)
  in
  Printf.sprintf
    "{ \"impl\": %S, \"count\": %d, \"latencies_ticks\": [%s] }\n" s.s_name
    (List.length lats) (String.concat "," lats)

(* Deterministic QCheck sampling of service specs, shared by the smoke
   gate and the generator tests. *)
let sample_specs ~seed ~count =
  (* detlint: allow D1 the state is derived from the caller's fixed seed, so every sampled spec replays deterministically *)
  let rand = Random.State.make [| 0x5e11; seed |] in
  QCheck.Gen.generate ~n:count ~rand Service_spec.gen
