(* ecsim: run and inspect eventual-consistency scenarios from the command
   line.

     ecsim list
     ecsim run --scenario partition --impl alg5 -n 5 --verbose
     ecsim check --scenario minority --impl paxos   (exit 1 on violations)
     ecsim run --spec finding.spec --timeline
     ecsim cht --crash 1:14 --rounds 5

   Every subcommand decodes its flags — or a builder spec file
   ([--spec FILE], the stable text form of [Harness.Builder]) — into one
   declarative builder value through a single shared decoder, and every
   run goes through [Builder.run]: the same code path as the test suite,
   the explorer and recorded spec files, so a run is deterministic in
   its spec. *)

open Simulator
open Ec_core
open Cmdliner
module Builder = Harness.Builder

(* ------------------------------------------------------------------ *)
(* Scenario catalogue (declarative presets over the builder)           *)
(* ------------------------------------------------------------------ *)

type scenario = {
  sc_name : string;
  sc_doc : string;
  sc_build : n:int -> seed:int -> deadline:int -> Builder.stack -> Builder.t;
  sc_default_n : int;
}

let oracle ?(pre = Detectors.Omega.Self_trust) stabilize_at =
  Harness.Stacks.Oracle { stabilize_at; pre }

let scenarios =
  [ { sc_name = "stable";
      sc_doc = "failure-free, Omega stable from time 0";
      sc_default_n = 3;
      sc_build =
        (fun ~n ~seed ~deadline stack ->
           { (Builder.create ~seed ~n ~deadline stack) with
             Builder.omega = Some (oracle 0) }) };
    { sc_name = "late-omega";
      sc_doc = "failure-free, Omega stabilizes at deadline/3 (self-trust before)";
      sc_default_n = 3;
      sc_build =
        (fun ~n ~seed ~deadline stack ->
           { (Builder.create ~seed ~n ~deadline stack) with
             Builder.omega = Some (oracle (deadline / 3)) }) };
    { sc_name = "partition";
      sc_doc = "two blocks with per-block leaders, healing at deadline/3";
      sc_default_n = 5;
      sc_build =
        (fun ~n ~seed ~deadline stack ->
           let heal = deadline / 3 in
           let left = List.filter (fun p -> p < (n + 1) / 2) (Types.all_procs n) in
           let right = List.filter (fun p -> p >= (n + 1) / 2) (Types.all_procs n) in
           { (Builder.create ~seed ~n ~deadline stack) with
             Builder.plan =
               [ Harness.Adversity.Partition
                   { left; from_time = 5; until_time = heal } ];
             omega =
               Some (oracle ~pre:(Detectors.Omega.Blockwise [ left; right ]) heal)
           }) };
    { sc_name = "minority";
      sc_doc = "all but two processes crash at deadline/4 (no correct majority)";
      sc_default_n = 5;
      sc_build =
        (fun ~n ~seed ~deadline stack ->
           { (Builder.create ~seed ~n ~deadline stack) with
             Builder.plan =
               List.filter_map
                 (fun p ->
                    if p >= 2 then
                      Some (Harness.Adversity.Crash { proc = p; at = deadline / 4 })
                    else None)
                 (Types.all_procs n);
             omega = Some (oracle 0) }) };
    { sc_name = "elected";
      sc_doc = "no oracle: heartbeat-based leader election, leader crashes mid-run";
      sc_default_n = 4;
      sc_build =
        (fun ~n ~seed ~deadline stack ->
           { (Builder.create ~seed
                ~delay:(Builder.Uniform { min_d = 1; max_d = 3 })
                ~n ~deadline stack)
             with
             Builder.plan =
               [ Harness.Adversity.Crash { proc = 0; at = deadline / 2 } ];
             omega = Some (Harness.Stacks.Elected { initial_timeout = 6 }) })
    };
  ]

let find_scenario name = List.find_opt (fun s -> s.sc_name = name) scenarios

let impls =
  [ ("alg5", Builder.Etob Harness.Stacks.Algorithm_5);
    ("paxos", Builder.Etob Harness.Stacks.Paxos_baseline);
    ("alg1", Builder.Etob Harness.Stacks.Algorithm_1_over_4);
    ("gossip", Builder.Gossip) ]

(* ------------------------------------------------------------------ *)
(* The shared option decoder                                           *)
(* ------------------------------------------------------------------ *)

(* The catalogue's workload policy: [posts] explicit messages spread over
   half the horizon, or 3 per process at the default cadence. *)
let workload_of ~n ~deadline ~posts =
  if posts > 0 then
    Builder.Posts
      { count = posts; from_time = 8; every = max 2 (deadline / (2 * posts)) }
  else
    Builder.Posts
      { count = 3 * n; from_time = 8; every = max 2 (deadline / (6 * n)) }

(* Decode one builder from either a spec file (which wins outright — it
   carries its own base, stack, workload and plan) or the scenario/impl
   flag catalogue.  Every run-shaped subcommand goes through here. *)
let decode ~spec ~scenario_name ~impl_name ~n ~seed ~deadline ~posts =
  match spec with
  | Some path -> Builder.read path
  | None ->
    (match (find_scenario scenario_name, List.assoc_opt impl_name impls) with
     | None, _ -> Error ("unknown scenario " ^ scenario_name)
     | _, None -> Error ("unknown implementation " ^ impl_name)
     | Some sc, Some stack ->
       let n = if n = 0 then sc.sc_default_n else n in
       Ok
         { (sc.sc_build ~n ~seed ~deadline stack) with
           Builder.workload = workload_of ~n ~deadline ~posts })

(* --- the shared flags, declared once --- *)

let spec_arg =
  let doc =
    "Load the run from a builder spec file ($(b,ecsim-spec v1), or a legacy \
     $(b,ecsim-explore-repro v1) file).  The spec carries its own base, \
     stack, workload and adversity plan, so it overrides \
     $(b,--scenario)/$(b,--impl)/$(b,-n)/$(b,--seed)/$(b,--deadline)/\
     $(b,--posts)."
  in
  Arg.(value & opt (some string) None & info [ "spec" ] ~docv:"FILE" ~doc)

let scenario_arg =
  let doc = "Scenario name (see $(b,ecsim list))." in
  Arg.(value & opt string "stable" & info [ "scenario"; "s" ] ~docv:"NAME" ~doc)

let impl_arg =
  let doc = "Broadcast implementation: alg5, paxos, alg1 or gossip." in
  Arg.(value & opt string "alg5" & info [ "impl"; "i" ] ~docv:"IMPL" ~doc)

let n_arg =
  let doc = "Number of processes (0 = scenario default)." in
  Arg.(value & opt int 0 & info [ "n" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let deadline_arg =
  let doc = "Run horizon in ticks." in
  Arg.(value & opt int 240 & info [ "deadline"; "d" ] ~docv:"TICKS" ~doc)

let posts_arg =
  let doc = "Number of broadcast messages in the workload (0 = default)." in
  Arg.(value & opt int 0 & info [ "posts" ] ~docv:"COUNT" ~doc)

let verbose_arg =
  let doc = "Print the full input/output trace." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let trace_out_arg =
  let doc =
    "Stream the run's event trace to this file ($(b,jsonl) or the framed \
     binary format; see $(b,--trace-format)).  A binary trace additionally \
     embeds the run's spec record, so it replays with \
     $(b,ecsim explore --replay FILE)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let trace_format_arg =
  let doc =
    "Trace file format: $(b,jsonl) (one JSON object per event line) or \
     $(b,bin) (framed binary, CRC-checksummed).  Defaults by suffix of \
     $(b,--trace-out): $(b,.bin) means binary, anything else jsonl."
  in
  Arg.(value & opt (some string) None & info [ "trace-format" ] ~docv:"FMT" ~doc)

(* Suffix detection: [--trace-format] wins when given; otherwise ".bin"
   selects the binary codec. *)
let resolve_trace_format ~path = function
  | Some name ->
    (match Builder.trace_format_of_name name with
     | Some f -> Ok f
     | None -> Error ("unknown trace format " ^ name ^ " (jsonl or bin)"))
  | None ->
    Ok (if Filename.check_suffix path ".bin" then Builder.Binary else Builder.Jsonl)

let timeline_arg =
  let doc = "Print an ASCII timeline of the run." in
  Arg.(value & flag & info [ "timeline"; "t" ] ~doc)

(* One cmdliner term producing the decoded builder: the per-subcommand
   flag wiring that used to be copied into run/check/sweep lives here
   exactly once. *)
let builder_term =
  let combine spec scenario_name impl_name n seed deadline posts =
    decode ~spec ~scenario_name ~impl_name ~n ~seed ~deadline ~posts
  in
  Term.(const combine $ spec_arg $ scenario_arg $ impl_arg $ n_arg $ seed_arg
        $ deadline_arg $ posts_arg)

(* Rebase a decoded builder onto another engine seed (sweep). *)
let with_seed b seed =
  match b.Builder.base with
  | Builder.Decl d -> { b with Builder.base = Builder.Decl { d with Builder.seed } }
  | Builder.Opaque s ->
    { b with Builder.base = Builder.Opaque { s with Harness.Stacks.seed } }

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

(* [report] is the run's own ETOB report when its checkers computed one;
   the extraction is still needed for the final delivered sequences. *)
let print_report setup trace ~report ~verbose =
  if verbose then begin
    print_endline "--- trace ---";
    List.iter (fun e -> Format.printf "%a@." Trace.pp_entry e) (Trace.entries trace);
    print_endline "--- end trace ---"
  end;
  let run = Properties.etob_run_of_trace setup.Harness.Stacks.pattern trace in
  let report =
    match report with Some r -> r | None -> Properties.etob_report run
  in
  Format.printf "pattern: %a@." Failures.pp setup.Harness.Stacks.pattern;
  Format.printf "messages sent: %d, delivered: %d, dropped: %d@."
    (Trace.sent trace) (Trace.delivered trace) (Trace.dropped trace);
  List.iter
    (fun p ->
       Format.printf "final d_p%d (%d msgs): %a@." p
         (List.length (Properties.final_d run p))
         App_msg.pp_seq (Properties.final_d run p))
    (Failures.correct setup.Harness.Stacks.pattern);
  Format.printf "%a@." Properties.pp_etob_report report;
  (match Harness.Stacks.omega_stabilization setup with
   | Some tau -> Format.printf "tau_Omega=%d, measured convergence tau=%d@." tau
                   (Properties.etob_convergence_time report)
   | None -> Format.printf "measured convergence tau=%d@."
               (Properties.etob_convergence_time report));
  report

(* Run a decoded builder and report: shared by run and check.  The
   builder's own checkers (spec files may carry them) are evaluated too,
   and their violations printed. *)
let execute_report b ~verbose ~timeline =
  let setup = Builder.setup_of b in
  let o = Builder.run ~digest:true b in
  let trace = match o.Builder.trace with Some t -> t | None -> assert false in
  if timeline then
    print_string (Harness.Timeline.render ~pattern:setup.Harness.Stacks.pattern trace);
  let report = print_report setup trace ~report:o.Builder.report ~verbose in
  List.iter (fun v -> Format.printf "spec violation: %s@." v) o.Builder.violations;
  Format.printf "trace digest %s@." o.Builder.digest;
  (report, o)

(* --- list --- *)

let list_cmd =
  let doc = "List the available scenarios and implementations." in
  let run () =
    print_endline "scenarios:";
    List.iter (fun s -> Printf.printf "  %-12s %s\n" s.sc_name s.sc_doc) scenarios;
    print_endline "implementations:";
    List.iter (fun (name, stack) ->
        Printf.printf "  %-12s %s\n" name
          (match stack with
           | Builder.Etob Harness.Stacks.Algorithm_5 ->
             "ETOB directly from Omega (Algorithm 5)"
           | Builder.Etob Harness.Stacks.Paxos_baseline ->
             "strong TOB from repeated consensus"
           | Builder.Etob Harness.Stacks.Algorithm_1_over_4 ->
             "ETOB through the EC transformation (Algorithms 1 + 4)"
           | _ ->
             "leaderless gossip ordering (no Omega; the negative baseline)"))
      impls
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* --- run --- *)

let run_cmd =
  let doc = "Run a scenario (or a spec file) and print the delivered sequences and the property report." in
  let run builder verbose timeline trace_out trace_format =
    match builder with
    | Error msg -> `Error (false, msg)
    | Ok b ->
      (match trace_out with
       | None -> ignore (execute_report b ~verbose ~timeline); `Ok ()
       | Some path ->
         (match resolve_trace_format ~path trace_format with
          | Error msg -> `Error (false, msg)
          | Ok format ->
            let b_run = { b with Builder.trace_out = Some (path, format) } in
            let _, o = execute_report b_run ~verbose ~timeline in
            (* A binary trace becomes a self-contained replay unit by
               appending the run's spec record — when the builder is
               declarative enough to have one. *)
            (match format with
             | Builder.Binary ->
               (try
                  Builder.append_binary_spec path ~digest:o.Builder.digest
                    ~violations:o.Builder.violations b
                with Invalid_argument _ ->
                  Format.printf
                    "note: run not serializable; %s has no spec record@." path)
             | Builder.Jsonl -> ());
            Format.printf "trace written to %s (%s)@." path
              (Builder.trace_format_name format);
            `Ok ()))
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(ret (const run $ builder_term $ verbose_arg $ timeline_arg
               $ trace_out_arg $ trace_format_arg))

(* --- check --- *)

let check_cmd =
  let doc =
    "Run a scenario (or a spec file) and exit non-zero if any ETOB \
     property — or any checker the spec carries — is violated."
  in
  let run builder verbose =
    match builder with
    | Error msg -> `Error (false, msg)
    | Ok b ->
      let report, o = execute_report b ~verbose ~timeline:false in
      if Properties.etob_base_ok report
      && report.Properties.causal_order.Properties.ok
      && o.Builder.violations = []
      then begin print_endline "CHECK PASSED"; `Ok () end
      else `Error (false, "property violations found")
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(ret (const run $ builder_term $ verbose_arg))

(* --- sweep --- *)

(* Everything a worker domain sends back per seed: plain data, no shared
   state. *)
type sweep_outcome = {
  sw_ok : bool;
  sw_tau : int;
  sw_sent : int;
  sw_delivered : int;
  sw_dropped : int;
  sw_latency : int array array;  (* per destination process *)
}

let sweep_cmd =
  let doc =
    "Run one scenario (or spec file) under a range of seeds in parallel \
     (one run per seed, fanned over OCaml domains) and print aggregated \
     verdicts and latency histograms."
  in
  let seeds_arg =
    let doc = "Number of seeds to sweep (base seed up to base+count-1)." in
    Arg.(value & opt int 64 & info [ "seeds" ] ~docv:"COUNT" ~doc)
  in
  let domains_arg =
    let doc = "Worker domains (0 = pick from the hardware)." in
    Arg.(value & opt int 0 & info [ "domains"; "j" ] ~docv:"D" ~doc)
  in
  let run builder seeds domains =
    match builder with
    | Error msg -> `Error (false, msg)
    | Ok b ->
      let n = Builder.n_of b in
      let base_seed = Builder.seed_of b in
      let domains =
        if domains > 0 then domains else Harness.Sweep.default_domains ()
      in
      let run_one ~seed =
        (* Observe the run twice over: a full trace for the property
           checkers plus counters for the latency histograms. *)
        let trace = Trace.create ~n in
        let c = Sink.counters ~n in
        let b =
          { (with_seed b seed) with
            Builder.checkers = [];
            sink = Some (Sink.tee (Sink.recorder trace) (Sink.counters_sink c)) }
        in
        ignore (Builder.run b);
        let pattern = (Builder.setup_of b).Harness.Stacks.pattern in
        let run = Properties.etob_run_of_trace pattern trace in
        let report = Properties.etob_report run in
        { sw_ok =
            Properties.etob_base_ok report
            && report.Properties.causal_order.Properties.ok;
          sw_tau = Properties.etob_convergence_time report;
          sw_sent = Trace.sent trace;
          sw_delivered = Trace.delivered trace;
          sw_dropped = Trace.dropped trace;
          sw_latency = Array.init n (Sink.latencies c) }
      in
      let seed_list = Harness.Sweep.seed_range ~base:base_seed ~count:seeds in
      let results = Harness.Sweep.map ~domains ~seeds:seed_list run_one in
      let outcomes = List.map (fun r -> r.Harness.Sweep.value) results in
      Format.printf "sweep: stack=%s n=%d seeds=%d..%d domains=%d@."
        (Builder.stack_name b.Builder.stack) n base_seed
        (base_seed + seeds - 1) domains;
      let verdicts =
        Harness.Sweep.verdicts results ~ok:(fun o -> o.sw_ok)
      in
      Format.printf "verdicts: %a@." Harness.Sweep.pp_verdicts verdicts;
      (match
         Harness.Sweep.mean_stddev
           (List.map (fun o -> float_of_int o.sw_tau) outcomes)
       with
       | Some (mean, stddev) ->
         Format.printf "convergence tau: mean=%.1f stddev=%.1f@." mean stddev
       | None -> ());
      let total f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
      Format.printf "messages: sent=%d delivered=%d dropped=%d@."
        (total (fun o -> o.sw_sent)) (total (fun o -> o.sw_delivered))
        (total (fun o -> o.sw_dropped));
      (match
         Harness.Sweep.merged_latency_stats
           (List.concat_map (fun o -> Array.to_list o.sw_latency) outcomes)
       with
       | Some s -> Format.printf "delivery latency (all procs): %a@." Harness.Stats.pp s
       | None -> ());
      List.iter
        (fun p ->
           match
             Harness.Sweep.merged_latency_stats
               (List.map (fun o -> o.sw_latency.(p)) outcomes)
           with
           | Some s -> Format.printf "  p%d: %a@." p Harness.Stats.pp s
           | None -> Format.printf "  p%d: no deliveries@." p)
        (Types.all_procs n);
      if verdicts.Harness.Sweep.failed_seeds = [] then `Ok ()
      else `Error (false, "property violations in sweep")
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(ret (const run $ builder_term $ seeds_arg $ domains_arg))

(* --- explore --- *)

let pp_explore_outcome (o : Explore.Explorer.outcome) =
  Format.printf "violating plan (%d adversities):@.%a@."
    (Harness.Adversity.size o.Explore.Explorer.plan)
    Harness.Adversity.pp o.Explore.Explorer.plan;
  List.iter
    (fun v -> Format.printf "  violation: %s@." v)
    o.Explore.Explorer.violations;
  Format.printf "engine seed %d, trace digest %s@." o.Explore.Explorer.seed
    (if o.Explore.Explorer.digest = "" then "(run raised)"
     else o.Explore.Explorer.digest)

let mkdirs dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

(* A self-contained binary artifact: re-run [b] streaming its events to
   [path], then append the spec record so the file replays on its own. *)
let write_trace_bin path b =
  let o =
    Builder.run ~digest:true ~catch:true
      { b with Builder.trace_out = Some (path, Builder.Binary) }
  in
  Builder.append_binary_spec path ~digest:o.Builder.digest
    ~violations:o.Builder.violations b

(* The acceptance gate, CI-sized: the faithful Algorithm 5 (crash-stop and
   crash-recovery alike) survives the whole budget clean, and the explorer
   finds every seeded mutant — protocol bugs and the recovery-path amnesia
   bug — shrinks the finding to at most 3 adversities, and replays it
   deterministically from its spec text ([Builder.replay]: the trace digest
   must reproduce byte for byte).  The first Algorithm 5 finding also
   travels the binary-artifact leg.  When [artifacts] is set, every shrunk
   finding (and any unexpected faithful flag) is written there as a .spec
   file, so CI can upload them on failure. *)
let explore_smoke ~domains ~budget ~seed ~artifacts =
  let module E = Explore.Explorer in
  let write_artifact name contents =
    match artifacts with
    | None -> ()
    | Some dir ->
      mkdirs dir;
      let path = Filename.concat dir name in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc contents);
      Format.printf "  artifact: %s@." path
  in
  let spec_text target (o : E.outcome) =
    Builder.to_string ~digest:o.E.digest ~violations:o.E.violations
      (E.builder_of target ~seed:o.E.seed o.E.plan)
  in
  let clean_gate label target =
    Format.printf "smoke: faithful %s over %d plans...@." label budget;
    let r = E.explore ~domains target ~seed ~budget ~max_adversities:4 () in
    match r.E.found with
    | Some o ->
      pp_explore_outcome o;
      write_artifact ("faithful-" ^ label ^ ".spec") (spec_text target o);
      Error
        (Printf.sprintf "faithful %s was flagged: explorer or protocol bug"
           label)
    | None ->
      Format.printf "  clean (%d plans)@." r.E.plans_run;
      Ok ()
  in
  (* Find, shrink, write and replay one mutant; the shrunk finding is
     returned for the binary leg. *)
  let check_mutant name target =
    let r = E.explore ~domains target ~seed ~budget ~max_adversities:4 () in
    match r.E.found with
    | None ->
      Error
        (Printf.sprintf "mutant %s: no violation within %d plans" name budget)
    | Some o ->
      let s = E.shrink target o in
      Format.printf
        "smoke: mutant %-22s found at plan %d, shrunk %d -> %d adversities@."
        name (r.E.plans_run - 1)
        (Harness.Adversity.size o.E.plan)
        (Harness.Adversity.size s.E.plan);
      let text = spec_text target s in
      write_artifact ("mutant-" ^ name ^ ".spec") text;
      if Harness.Adversity.size s.E.plan > 3 then
        Error
          (Printf.sprintf "mutant %s: shrunk plan still has %d adversities"
             name
             (Harness.Adversity.size s.E.plan))
      else
        match Builder.replay text with
        | Ok _ -> Ok s
        | Error msg -> Error (Printf.sprintf "mutant %s: replay: %s" name msg)
  in
  (* Binary-artifact leg: stream a finding to a framed binary trace, embed
     its spec record, and replay from the artifact alone — the digest must
     survive the format change. *)
  let binary_gate name target (s : E.outcome) =
    let bin_path, keep =
      match artifacts with
      | Some dir ->
        mkdirs dir;
        (Filename.concat dir ("mutant-" ^ name ^ ".trace.bin"), true)
      | None -> (Filename.temp_file "ecsim-smoke" ".trace.bin", false)
    in
    write_trace_bin bin_path (E.builder_of target ~seed:s.E.seed s.E.plan);
    if keep then Format.printf "  artifact: %s@." bin_path;
    let verdict =
      match Builder.binary_spec bin_path with
      | Error msg -> Error ("binary artifact: " ^ msg)
      | Ok text ->
        (match Builder.replay text with
         | Error msg -> Error ("binary artifact: " ^ msg)
         | Ok o when o.Builder.digest <> s.E.digest ->
           Error
             (Printf.sprintf "binary artifact: digest mismatch (%s vs %s)"
                o.Builder.digest s.E.digest)
         | Ok _ ->
           Format.printf "  binary artifact reproduced digest %s@." s.E.digest;
           Ok ())
    in
    if not keep then (try Sys.remove bin_path with Sys_error _ -> ());
    verdict
  in
  let rec all = function
    | [] -> Ok []
    | (name, target) :: rest ->
      (match check_mutant name target with
       | Ok s -> Result.map (fun found -> (name, target, s) :: found) (all rest)
       | Error _ as e -> e)
  in
  let faithful = E.default_target in
  let recovering = { faithful with E.recovery = true } in
  let ( let* ) = Result.bind in
  let* () = clean_gate "alg5" faithful in
  let* etob_found =
    all
      (List.map
         (fun m ->
            ( Etob_omega.mutation_name m,
              { faithful with E.mutation = Some m } ))
         Etob_omega.all_mutations)
  in
  (* Recovery gate: same story under crash-recovery adversities. *)
  let* () = clean_gate "alg5+recovery" recovering in
  let* _ =
    all
      (List.map
         (fun m ->
            ( Recoverable.mutation_name m,
              { recovering with E.rmutation = Some m } ))
         Recoverable.all_mutations)
  in
  (* Partition liveness gate: the anti-entropy stack under the watchdog.
     Generated plans now include message-LOSING partitions (split-brain,
     minority isolation, one-way links, flapping bridges) that heal far
     past the last post — only the digest exchange can repair them, and
     the watchdog checks that every correct process actually converges.
     The faithful stack must survive clean; the skip-digest mutant (the
     layer that never advertises) must be caught. *)
  let partitioned = { faithful with E.ae = true; watchdog = true } in
  let* () = clean_gate "alg5+ae+watchdog" partitioned in
  let* _ =
    all
      (List.map
         (fun m ->
            ( Anti_entropy.mutation_name m,
              { partitioned with E.ae_mutation = Some m } ))
         Anti_entropy.all_mutations)
  in
  let* () =
    match etob_found with
    | (name, target, s) :: _ ->
      Format.printf "smoke: binary artifact (mutant %s)...@." name;
      binary_gate name target s
    | [] -> Error "no Algorithm 5 mutant to replay from a binary artifact"
  in
  print_endline "SMOKE PASSED";
  Ok ()

(* Replay a finding file: a framed binary trace replays the spec text it
   embeds, anything else is spec text (either header); [Builder.replay]
   judges both. *)
let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let replay_file path =
  let text =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error msg -> Error msg
    | content when starts_with ~prefix:"ECTRACE" content ->
      Format.printf "replaying embedded spec of %s@." path;
      Result.map_error (fun msg -> "binary trace: " ^ msg)
        (Builder.binary_spec path)
    | content -> Ok content
  in
  match Result.bind text Builder.replay with
  | Error msg -> `Error (false, "replay: " ^ msg)
  | Ok o ->
    List.iter (fun v -> Format.printf "  violation: %s@." v) o.Builder.violations;
    Format.printf "trace digest %s@." o.Builder.digest;
    print_endline "REPLAY REPRODUCED";
    `Ok ()

let explore_cmd =
  let doc =
    "Adversarially explore a protocol stack: enumerate bounded adversity \
     plans (crashes, partitions, delay spikes, drops, duplicates, leader \
     flapping), flag property violations, shrink findings to a minimal \
     plan and write a deterministic spec file."
  in
  let plans_arg =
    let doc = "Exploration budget: number of adversity plans to run." in
    Arg.(value & opt int 500 & info [ "plans" ] ~docv:"COUNT" ~doc)
  in
  let max_adv_arg =
    let doc = "Maximum adversities per generated plan." in
    Arg.(value & opt int 4 & info [ "max-adversities" ] ~docv:"K" ~doc)
  in
  let mutant_arg =
    let doc =
      "Seed a known bug: skip-dependency-wait, forget-promote-prefix, \
       drop-graph-union or disable-stale-guard (Algorithm 5), \
       skip-log-replay (the crash-recovery path; implies $(b,--recovery)), \
       or skip-digest (the anti-entropy layer; implies $(b,--ae))."
    in
    Arg.(value & opt (some string) None & info [ "mutant" ] ~docv:"NAME" ~doc)
  in
  let recovery_arg =
    let doc =
      "Explore the crash-recovery stack: Algorithm 5 under the durable \
       write-ahead log and retransmission links, with downtime windows \
       and disk faults among the generated adversities."
    in
    Arg.(value & flag & info [ "recovery" ] ~doc)
  in
  let ae_arg =
    let doc =
      "Stack the anti-entropy digest layer beside Algorithm 5 and admit \
       message-losing partitions (split-brain, minority isolation, one-way \
       links, flapping bridges) among the generated adversities."
    in
    Arg.(value & flag & info [ "ae" ] ~doc)
  in
  let watchdog_arg =
    let doc =
      "Check liveness, not just safety: after each plan's adversities \
       settle, every correct process must reach the converged state within \
       the computed progress bound or the plan is flagged."
    in
    Arg.(value & flag & info [ "watchdog" ] ~doc)
  in
  let artifacts_arg =
    let doc =
      "In smoke mode, write every shrunk finding as a spec file into this \
       directory (created if needed) so CI can upload them on failure."
    in
    Arg.(value & opt (some string) None & info [ "artifacts" ] ~docv:"DIR" ~doc)
  in
  let domains_arg =
    let doc =
      "Worker domains; 1 explores sequentially with early exit, more fans \
       plan chunks over domains via the sweep layer."
    in
    Arg.(value & opt int 1 & info [ "domains"; "j" ] ~docv:"D" ~doc)
  in
  let out_arg =
    let doc =
      "Write the (shrunk) finding to this file: a framed binary trace \
       (events plus embedded spec record) for a $(b,.bin) suffix, \
       builder-spec text otherwise."
    in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let replay_arg =
    let doc =
      "Replay a spec file (legacy repro files included) or a binary trace \
       file instead of exploring: the recorded digest must reproduce, and \
       the run must violate exactly when the file records violations."
    in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let smoke_arg =
    let doc =
      "Acceptance mode: the faithful Algorithm 5 must survive the budget \
       clean and every seeded mutant must be found, shrunk to <= 3 \
       adversities and replayed deterministically from its spec text (one \
       finding also from a binary trace artifact)."
    in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let explore_spec_arg =
    let doc =
      "Read the exploration target off a builder spec file: base, stack, \
       workload, mutations and checkers come from the spec (its plan is \
       discarded — exploration generates plans); the spec's $(b,budget) \
       header, when present, overrides $(b,--plans)."
    in
    Arg.(value & opt (some string) None & info [ "spec" ] ~docv:"FILE" ~doc)
  in
  let run impl_name n seed deadline posts plans max_adv mutant recovery ae
      watchdog domains out replay smoke artifacts spec =
    let module E = Explore.Explorer in
    match replay with
    | Some path -> replay_file path
    | None ->
      if smoke then
        match explore_smoke ~domains ~budget:plans ~seed ~artifacts with
        | Ok () -> `Ok ()
        | Error msg -> `Error (false, msg)
      else begin
        (* The target: read off a spec file, or assembled from the flag
           catalogue (a mutant name resolves in the Algorithm-5 namespace
           first, then recovery-path, then anti-entropy). *)
        let target_result =
          match spec with
          | Some path ->
            (match Builder.read path with
             | Error msg -> Error ("spec parse: " ^ msg)
             | Ok b ->
               E.target_of b
               |> Result.map (fun t ->
                   (t, Option.value b.Builder.budget ~default:plans)))
          | None ->
            (match List.assoc_opt impl_name impls with
             | Some (Builder.Etob impl) ->
               (match
                  Option.map
                    (fun name ->
                       match Etob_omega.mutation_of_string name with
                       | Some m -> `Etob m
                       | None ->
                         (match Ec_core.Recoverable.mutation_of_string name with
                          | Some m -> `Recovery m
                          | None ->
                            (match Anti_entropy.mutation_of_string name with
                             | Some m -> `Ae m
                             | None -> invalid_arg ("unknown mutant " ^ name))))
                    mutant
                with
                | exception Invalid_argument msg ->
                  Error
                    (Printf.sprintf "%s (known: %s)" msg
                       (String.concat ", "
                          (List.map Etob_omega.mutation_name
                             Etob_omega.all_mutations
                           @ List.map Ec_core.Recoverable.mutation_name
                               Ec_core.Recoverable.all_mutations
                           @ List.map Anti_entropy.mutation_name
                               Anti_entropy.all_mutations)))
                | parsed ->
                  let mutation =
                    match parsed with Some (`Etob m) -> Some m | _ -> None
                  in
                  let rmutation =
                    match parsed with Some (`Recovery m) -> Some m | _ -> None
                  in
                  let ae_mutation =
                    match parsed with Some (`Ae m) -> Some m | _ -> None
                  in
                  Ok
                    ( { E.default_target with
                        E.impl;
                        mutation;
                        rmutation;
                        ae_mutation;
                        recovery = recovery || rmutation <> None;
                        ae = ae || ae_mutation <> None;
                        watchdog;
                        n = (if n = 0 then E.default_target.E.n else n);
                        deadline;
                        posts =
                          (if posts = 0 then E.default_target.E.posts
                           else posts) },
                      plans ))
             | _ ->
               Error ("unknown implementation for explore: " ^ impl_name))
        in
        match target_result with
        | Error msg -> `Error (false, msg)
        | Ok (target, plans) ->
          Format.printf
            "explore: impl=%s mutant=%s recovery=%b ae=%b watchdog=%b \
             n=%d plans=%d max-adversities=%d domains=%d@."
            (Builder.stack_name (Builder.Etob target.E.impl))
            (match
               target.E.mutation, target.E.rmutation, target.E.ae_mutation
             with
             | Some m, _, _ -> Etob_omega.mutation_name m
             | None, Some m, _ -> Ec_core.Recoverable.mutation_name m
             | None, None, Some m -> Anti_entropy.mutation_name m
             | None, None, None -> "none")
            target.E.recovery target.E.ae target.E.watchdog target.E.n
            plans max_adv domains;
          let r =
            E.explore ~domains target ~seed ~budget:plans
              ~max_adversities:max_adv ()
          in
          (match r.E.found with
           | None ->
             Format.printf "clean: %d plans, no violation@." r.E.plans_run;
             `Ok ()
           | Some o ->
             Format.printf "violation at plan %d; shrinking...@."
               (r.E.plans_run - 1);
             let s = E.shrink target o in
             pp_explore_outcome s;
             (match out with
              | Some path ->
                let b = E.builder_of target ~seed:s.E.seed s.E.plan in
                if Filename.check_suffix path ".bin" then write_trace_bin path b
                else
                  Builder.write path ~digest:s.E.digest
                    ~violations:s.E.violations b;
                Format.printf "finding written to %s@." path
              | None -> ());
             `Error (false, "property violations found"))
      end
  in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(ret (const run $ impl_arg $ n_arg $ seed_arg $ deadline_arg
               $ posts_arg $ plans_arg $ max_adv_arg $ mutant_arg
               $ recovery_arg $ ae_arg $ watchdog_arg $ domains_arg
               $ out_arg $ replay_arg $ smoke_arg $ artifacts_arg
               $ explore_spec_arg))

(* --- soak --- *)

let soak_cmd =
  let doc =
    "Run a crash-safe soak campaign: long randomized adversity \
     exploration across legs, with per-run event budgets and monotonic \
     wall-clock deadlines (stuck runs are poisoned, not fatal), worker \
     quarantine with auto-shrunk replayable repros, a framed CRC32 \
     campaign journal ($(b,--resume) continues an interrupted campaign \
     deterministically), and a degradation ladder (halve concurrency, \
     skip poisoned seeds within a logged budget, only then abort).  \
     Exit 0 clean, 1 reproducible findings, 2 on unshrinkable findings \
     or an aborted campaign."
  in
  let legs_arg =
    let doc =
      "Comma-separated campaign legs (named explorer targets): alg5, \
       ae-watchdog, ae-watchdog-recovery."
    in
    Arg.(value & opt string "ae-watchdog,ae-watchdog-recovery"
         & info [ "legs" ] ~docv:"NAMES" ~doc)
  in
  let budget_arg =
    let doc = "Adversity plans per leg." in
    Arg.(value & opt int 200 & info [ "budget" ] ~docv:"PLANS" ~doc)
  in
  let seed_arg =
    let doc = "Base engine seed (plan i runs under seed+i)." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let max_adv_arg =
    let doc = "Maximum adversities per generated plan." in
    Arg.(value & opt int 4 & info [ "max-adversities" ] ~docv:"K" ~doc)
  in
  let event_budget_arg =
    let doc = "Per-run event budget before the guard declares the run stuck." in
    Arg.(value & opt int 200_000 & info [ "event-budget" ] ~docv:"EVENTS" ~doc)
  in
  let deadline_arg =
    let doc =
      "Per-run wall-clock deadline in milliseconds (monotonic; a wedged \
       run is poisoned when it exceeds this)."
    in
    Arg.(value & opt int 10_000 & info [ "deadline-per-run" ] ~docv:"MS" ~doc)
  in
  let max_findings_arg =
    let doc = "Stop the campaign after this many quarantined findings." in
    Arg.(value & opt int 16 & info [ "max-findings" ] ~docv:"N" ~doc)
  in
  let max_poisoned_arg =
    let doc =
      "Coverage-sacrifice budget: poisoned seeds tolerated before the \
       campaign aborts."
    in
    Arg.(value & opt int 8 & info [ "max-poisoned" ] ~docv:"N" ~doc)
  in
  let domains_arg =
    let doc = "Worker domains (0 = pick from the hardware)." in
    Arg.(value & opt int 0 & info [ "j"; "domains" ] ~docv:"D" ~doc)
  in
  let artifacts_arg =
    let doc = "Directory for the campaign journal and shrunk .spec repros." in
    Arg.(value & opt string "_artifacts/soak"
         & info [ "artifacts" ] ~docv:"DIR" ~doc)
  in
  let resume_arg =
    let doc =
      "Resume an interrupted campaign from its journal (config, cursor, \
       findings and poisoned seeds are read back; a torn tail is \
       compacted away).  Other campaign flags are ignored."
    in
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)
  in
  let run legs budget seed max_adversities event_budget deadline_ms
      max_findings max_poisoned domains artifacts resume =
    let domains = if domains <= 0 then None else Some domains in
    let on_progress ~done_ ~total =
      Format.printf "soak: %d/%d jobs@." done_ total
    in
    let finish config (o : Soak.Runner.outcome) =
      Format.printf "%a" (Soak.Report.pp config) o.Soak.Runner.state;
      Format.printf "journal: %s@." o.Soak.Runner.journal;
      match Soak.Report.exit_code (Soak.Report.verdict o.Soak.Runner.state) with
      | 0 -> `Ok ()
      | code -> Stdlib.exit code
    in
    match resume with
    | Some journal ->
      (match Persist.Journal.read journal with
       | Error e -> `Error (false, e)
       | Ok { Persist.Journal.records = first :: _; _ } ->
         (match Soak.Journal.decode first with
          | Ok (Soak.Journal.Config jc) ->
            (match Soak.Campaign.config_of_journal jc with
             | Error e -> `Error (false, e)
             | Ok config ->
               (match
                  Soak.Runner.resume ?domains ~on_progress ~journal ()
                with
                | Error e -> `Error (false, e)
                | Ok o -> finish config o))
          | Ok _ | Error _ ->
            `Error (false, journal ^ ": does not start with a config record"))
       | Ok { Persist.Journal.records = []; _ } ->
         `Error (false, journal ^ ": empty journal"))
    | None ->
      let leg_results =
        List.map Soak.Campaign.leg_of_name
          (String.split_on_char ',' legs |> List.filter (fun s -> s <> ""))
      in
      (match
         List.find_map
           (function Error e -> Some e | Ok _ -> None)
           leg_results
       with
       | Some e -> `Error (false, e)
       | None ->
         let legs =
           List.filter_map
             (function Ok l -> Some l | Error _ -> None)
             leg_results
         in
         if legs = [] then `Error (false, "no campaign legs given")
         else begin
           let config =
             { Soak.Campaign.legs;
               budget;
               seed;
               max_adversities;
               event_budget;
               deadline_ms;
               max_findings;
               max_poisoned;
               artifacts }
           in
           let journal = Filename.concat artifacts "campaign.journal" in
           match Soak.Runner.start ?domains ~on_progress ~journal config with
           | Error e -> `Error (false, e)
           | Ok o -> finish config o
         end)
  in
  Cmd.v (Cmd.info "soak" ~doc)
    Term.(ret (const run $ legs_arg $ budget_arg $ seed_arg $ max_adv_arg
               $ event_budget_arg $ deadline_arg $ max_findings_arg
               $ max_poisoned_arg $ domains_arg $ artifacts_arg $ resume_arg))

(* --- service --- *)

(* The closed-loop client service layer (DESIGN.md §16).  Without [--spec]
   this runs experiment E22 — ETOB vs Paxos under the crash+partition
   schedule — and enforces its four gates (availability gap, bounded retry
   amplification, zero duplicate applies, replay determinism), writing
   BENCH_service.json and the latency artifacts for CI to upload on
   failure.  [--smoke] additionally replays QCheck-generated client
   populations and demands byte-identical digests; [--spec FILE] runs the
   [service ...] population of a builder spec file instead. *)
let service_cmd =
  let doc =
    "Run the closed-loop client service layer: the E22 availability gates, \
     or the service population of a spec file."
  in
  let smoke_arg =
    let doc =
      "CI smoke gate: E22 plus determinism checks over generated specs."
    in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let seed_arg =
    let doc = "Engine seed." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let spec_arg =
    let doc =
      "Run the service population of this builder spec file (needs a \
       'service ...' line) instead of E22."
    in
    Arg.(value & opt (some file) None & info [ "spec" ] ~docv:"FILE" ~doc)
  in
  let artifacts_arg =
    let doc = "Directory for BENCH_service.json and the latency artifacts." in
    Arg.(value & opt string "_artifacts/service"
         & info [ "artifacts" ] ~docv:"DIR" ~doc)
  in
  let write_artifacts dir result =
    mkdirs dir;
    let write name contents =
      let path = Filename.concat dir name in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc contents);
      Format.printf "wrote %s@." path
    in
    write "BENCH_service.json" (Service.Experiment.to_json result);
    write "latency_etob.json"
      (Service.Experiment.histogram_json result.Service.Experiment.etob);
    write "latency_paxos.json"
      (Service.Experiment.histogram_json result.Service.Experiment.paxos)
  in
  let run_spec_file path =
    let lines = In_channel.with_open_text path In_channel.input_lines in
    match Builder.of_lines lines with
    | Error msg -> `Error (false, msg)
    | Ok b ->
      (match Service.Runner.run_builder b with
       | Error msg -> `Error (false, msg)
       | Ok o ->
         Format.printf "%a@.digest %s  dedup %s@." Service.Metrics.pp
           o.Service.Runner.report o.Service.Runner.digest
           (if o.Service.Runner.dedup_ok then "ok" else "VIOLATED");
         if o.Service.Runner.dedup_ok then `Ok ()
         else `Error (false, "duplicate applies leaked through dedup"))
  in
  (* Generated populations: each sampled spec must replay to the same
     digest on a failure-free stack, never exceed its structural attempt
     budget, and let no duplicate apply through. *)
  let generated_failures ~seed =
    let specs = Service.Experiment.sample_specs ~seed ~count:3 in
    List.concat_map
      (fun spec ->
        let setup =
          { (Harness.Stacks.default ~n:3 ~deadline:120) with
            Harness.Stacks.seed = seed }
        in
        let go () =
          Service.Runner.run ~setup ~spec ~impl:Harness.Stacks.Algorithm_5
        in
        let a = go () in
        let b = go () in
        let budget = 1 + spec.Harness.Service_spec.retries in
        let tag = Harness.Service_spec.to_string spec in
        List.filter_map Fun.id
          [ (if String.equal a.Service.Runner.digest b.Service.Runner.digest
             then None
             else Some (Printf.sprintf "generated [%s]: replay digest diverged" tag));
            (if a.Service.Runner.report.Service.Metrics.max_attempts <= budget
             then None
             else
               Some
                 (Printf.sprintf "generated [%s]: %d attempts exceed budget %d"
                    tag a.Service.Runner.report.Service.Metrics.max_attempts
                    budget));
            (if a.Service.Runner.dedup_ok then None
             else Some (Printf.sprintf "generated [%s]: duplicate applies" tag)) ])
      specs
  in
  let run smoke seed spec artifacts =
    match spec with
    | Some path -> run_spec_file path
    | None ->
      let result = Service.Experiment.run ~seed () in
      List.iter
        (fun (g : Service.Experiment.gate) ->
          Format.printf "gate %-20s %-4s %s@." g.g_name
            (if g.g_pass then "ok" else "FAIL")
            g.g_detail)
        result.Service.Experiment.gates;
      let failures =
        if smoke then generated_failures ~seed else []
      in
      List.iter (fun f -> Format.printf "FAIL %s@." f) failures;
      write_artifacts artifacts result;
      if result.Service.Experiment.pass && failures = [] then begin
        print_endline "SERVICE GATES PASSED";
        `Ok ()
      end
      else `Error (false, "service gates failed")
  in
  Cmd.v (Cmd.info "service" ~doc)
    Term.(ret (const run $ smoke_arg $ seed_arg $ spec_arg $ artifacts_arg))

(* --- cht --- *)

let cht_cmd =
  let doc = "Run the CHT reduction: emulate Omega from an EC black box." in
  let crash_arg =
    let doc = "Crash specification, e.g. 1:14 (process 1 crashes at time 14)." in
    Arg.(value & opt (some string) None & info [ "crash" ] ~docv:"P:T" ~doc)
  in
  let rounds_arg =
    let doc = "Number of emulation rounds." in
    Arg.(value & opt int 5 & info [ "rounds" ] ~docv:"R" ~doc)
  in
  let n_arg =
    let doc = "Number of processes (2 or 3; the tree grows fast)." in
    Arg.(value & opt int 2 & info [ "n" ] ~docv:"N" ~doc)
  in
  let run n crash rounds =
    let pattern =
      match crash with
      | None -> Failures.none ~n
      | Some spec ->
        (match String.split_on_char ':' spec with
         | [ p; t ] ->
           (match int_of_string_opt p, int_of_string_opt t with
            | Some p, Some t -> Failures.of_crashes ~n [ (p, t) ]
            | _ -> Failures.none ~n)
         | _ -> Failures.none ~n)
    in
    let omega =
      Detectors.Omega.make ~pre:(Detectors.Omega.Fixed (n - 1)) pattern
        ~stabilize_at:18
    in
    let sampler p t = Cht.Fd_value.leader (Detectors.Omega.query omega ~self:p ~now:t) in
    let dag = Cht.Dag.build ~pattern ~sampler ~period:4 ~gossip:4 ~rounds:(4 + (2 * rounds)) in
    Format.printf "pattern: %a; adversarial prefix trusts p%d until t=18@."
      Failures.pp pattern (n - 1);
    let per_round =
      Cht.Extraction.emulate ~algo:Cht.Pure.ec_omega ~dag
        ~budget:Cht.Extraction.default_budget ~rounds ~round_horizon:8 ()
    in
    List.iteri
      (fun r outputs ->
         Format.printf "round %d: [%s]@." r
           (String.concat ", " (List.map (fun p -> "p" ^ string_of_int p) outputs)))
      per_round;
    match Cht.Extraction.stabilization ~pattern per_round with
    | Some (r, leader) ->
      Format.printf "stabilized from round %d on p%d (%s)@." r leader
        (if Failures.is_correct pattern leader then "correct" else "FAULTY");
      `Ok ()
    | None -> `Error (false, "did not stabilize within the emulated rounds")
  in
  Cmd.v (Cmd.info "cht" ~doc) Term.(ret (const run $ n_arg $ crash_arg $ rounds_arg))

(* ------------------------------------------------------------------ *)

let () =
  let doc = "simulate eventually consistent replication (PODC 2015 reproduction)" in
  let info = Cmd.info "ecsim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; check_cmd; sweep_cmd; explore_cmd; soak_cmd;
            service_cmd; cht_cmd ]))
