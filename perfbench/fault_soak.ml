(* fault_soak: the [ecsim soak] path.  Fresh campaigns of the
   ae-watchdog-recovery leg (n = 4, up to 4 adversities: crash-recovery,
   disk faults, lossy partitions; anti-entropy under the convergence
   watchdog) run one after another on one domain, each with a fresh
   journal.  The items are the campaign's jobs, timed by wrapping the
   runner's own executor; campaigns differ only by their seed. *)

open Harness
module B = Builder
module Campaign = Soak.Campaign
module Runner = Soak.Runner

let pool = 8 (* campaigns, cycled *)
let budget = 64 (* jobs per campaign *)
let dir () = Filename.concat Measure.out_dir "fault_soak"
let journal () = Filename.concat (dir ()) "campaign.journal"

let leg () =
  match Campaign.leg_of_name "ae-watchdog-recovery" with
  | Ok leg -> leg
  | Error e -> failwith e

let config ~seed k leg =
  { (Campaign.default_config ~artifacts:(dir ()) [ leg ]) with
    Campaign.budget;
    seed = Measure.derive ~seed k;
    max_adversities = 4 }

let builder_of (cfg : Campaign.config) j =
  let leg = Campaign.leg_of_job cfg j in
  Explore.Explorer.builder_of leg.Campaign.target
    ~seed:(Campaign.engine_seed cfg j) (Campaign.plan_of_job cfg j)

(* Configs, every job's plan and inputs, and the journal. *)
let setup ~seed () =
  let leg = leg () in
  let configs = Array.init pool (fun k -> config ~seed k leg) in
  Array.iter
    (fun cfg ->
       for j = 0 to budget - 1 do
         let b = builder_of cfg j in
         ignore (Sys.opaque_identity (B.setup_of b, B.inputs b))
       done)
    configs;
  Measure.mkdirs (dir ());
  Persist.Journal.close (Persist.Journal.create (journal ()));
  configs

(* The journal read back: its entries must rebuild the same state. *)
let replayed cfg path =
  match Persist.Journal.read path with
  | Error e -> Error e
  | Ok { Persist.Journal.records; _ } ->
    let entries =
      List.filter_map
        (fun r ->
           match Soak.Journal.decode r with
           | Ok (Soak.Journal.Config _) -> None
           | Ok e -> Some e
           | Error e -> failwith ("journal record: " ^ e))
        records
    in
    Ok (Campaign.replay cfg entries, entries)

(* A seeded recovery bug the leg must flag: replaying no log on restart
   (amnesia) re-broadcasts used ids.  The leg's plans do not expose the
   anti-entropy skip-digest mutant within a probe's budget. *)
let mutant_probe ~seed leg =
  let target =
    { leg.Campaign.target with
      Explore.Explorer.rmutation = Some Ec_core.Recoverable.Skip_log_replay }
  in
  let cfg =
    { (config ~seed 0 { Campaign.name = "ae-watchdog-recovery+skip-log-replay"; target })
      with
      Campaign.budget = 128;
      max_findings = 1;
      artifacts = Filename.concat (dir ()) "mutant" }
  in
  match
    Runner.start ~domains:1 ~journal:(Filename.concat (dir ()) "mutant.journal") cfg
  with
  | Ok { Runner.state; _ } when state.Campaign.findings <> [] -> []
  | Ok _ -> [ "probe not flagged: skip-log-replay" ]
  | Error e -> [ "probe campaign failed: " ^ e ]

let traced tr c w (cfg : Campaign.config) j ~item ~untraced_ms ~untraced_words =
  let it = Tracer.begin_item tr ~item in
  let plan = Tracer.phase tr Tracer.plan (fun () -> Campaign.plan_of_job cfg j) in
  let b =
    Tracer.phase tr Tracer.materialise (fun () ->
        let leg = Campaign.leg_of_job cfg j in
        Explore.Explorer.builder_of leg.Campaign.target
          ~seed:(Campaign.engine_seed cfg j) plan)
  in
  let setup, inputs =
    Tracer.phase tr Tracer.materialise (fun () -> (B.setup_of b, B.inputs b))
  in
  let ae =
    match b.B.stack with
    | B.Recoverable { ae } -> ae
    | _ -> failwith "the leg's jobs run the recoverable stack"
  in
  let stores =
    Tracer.phase tr Tracer.materialise (fun () ->
        let stores = Persist.Store.pool ~n:setup.Stacks.n in
        Adversity.arm_disk_faults b.B.plan stores;
        stores)
  in
  let ae = if ae then Some Ec_core.Anti_entropy.default_config else None in
  let trace, handles =
    Layers.run_engine tr setup
      ~make_node:(Stacks.recoverable_node ?ae setup ~stores)
      ~inputs c
  in
  Array.iter
    (fun h ->
       c.Layers.retransmitted <-
         c.Layers.retransmitted + Ec_core.Recoverable.retransmitted h)
    handles;
  Array.iter
    (fun st ->
       let s = Persist.Store.stats st in
       c.Layers.appends <- c.Layers.appends + s.Persist.Store.appends;
       c.Layers.syncs <- c.Layers.syncs + s.Persist.Store.syncs;
       c.Layers.restarts <- c.Layers.restarts + s.Persist.Store.restarts)
    stores;
  let violations = Layers.checks tr b setup trace c in
  let dg = Layers.digest tr trace c in
  Tracer.phase tr Tracer.journal (fun () ->
      Persist.Journal.append w
        (Soak.Journal.encode (Soak.Journal.Run { job = j; digest = dg })));
  if violations = [] then c.Layers.clean <- c.Layers.clean + 1;
  Layers.end_item tr c it ~compared:Pool.item_layers ~untraced_ms
    ~untraced_words;
  (dg, violations)

let run ~seed ~seconds ~trace =
  let configs, prep = Measure.setup (setup ~seed) in
  let leg = leg () in
  let ledger = Measure.ledger () in
  let slots = Measure.slots (pool * budget) in
  let digests = Array.make (pool * budget) "" in
  let coverage = Array.make pool None in
  let s = Measure.samples () in
  let current = ref 0 in
  let exec ~guard target ~seed plan =
    let r = Measure.timed s (fun () -> Runner.default_exec ~guard target ~seed plan) in
    Measure.record slots
      ((!current * budget) + (seed - configs.(!current).Campaign.seed))
      s;
    r
  in
  let attempted = ref 0 in
  (* One campaign, then its checks (untimed): no findings, no poisoned
     jobs, a journal that replays to the same coverage digest, and the
     same digest as this campaign's earlier runs. *)
  let campaign ~timed k =
    current := k;
    let cfg = configs.(k) in
    let t0 = Mono.now_ns () in
    let res =
      if timed then Runner.start ~domains:1 ~exec ~journal:(journal ()) cfg
      else Runner.start ~domains:1 ~journal:(journal ()) cfg
    in
    if timed then s.Measure.wall_ms <- s.Measure.wall_ms +. Measure.ms_since t0;
    attempted := !attempted + budget;
    match res with
    | Error e -> Measure.fail ledger "campaign %d failed: %s" k e
    | Ok { Runner.state; journal = path } ->
      let bad = budget - state.Campaign.clean in
      if bad > 0 then
        Measure.fail_items ledger bad "campaign %d: %d findings, %d poisoned jobs"
          k (List.length state.Campaign.findings) state.Campaign.poisoned;
      let cov = Campaign.coverage_digest state in
      (match replayed cfg path with
       | Error e -> Measure.fail ledger "campaign %d journal: %s" k e
       | Ok (st, entries) ->
         if Campaign.coverage_digest st <> cov then
           Measure.fail ledger "campaign %d: journal replays to another digest" k;
         List.iter
           (function
             | Soak.Journal.Run { job; digest } ->
               let slot = (k * budget) + job in
               if digests.(slot) = "" then digests.(slot) <- digest
             | _ -> ())
           entries);
      (match coverage.(k) with
       | None -> coverage.(k) <- Some cov
       | Some d when d <> cov ->
         Measure.fail ledger "campaign %d: coverage digest not reproduced" k
       | Some _ -> ())
  in
  (* Warm-up: one job, untimed. *)
  (let b = builder_of configs.(0) 0 in
   match B.run ~digest:true ~catch:true b with
   | { B.violations = []; _ } -> ()
   | { B.violations = v :: _; _ } -> Measure.fail ledger "warm-up job: %s" v);
  let budget_ms = float_of_int seconds *. if trace then 500. else 1000. in
  let n = ref 0 in
  while s.Measure.wall_ms < budget_ms do
    campaign ~timed:true (!n mod pool);
    prep.Measure.redo ();
    incr n
  done;
  (* Every run checks reproduction at least once. *)
  if !n <= pool then campaign ~timed:false 0;
  let probes = mutant_probe ~seed leg in
  Measure.write_samples s
    (Filename.concat Measure.out_dir (Printf.sprintf "samples-fault_soak-%d.tsv" seed));
  let metrics, words_problems =
    if not trace then (Measure.end_to_end ~prep ~tail:0.90 s, [])
    else begin
      let path = Filename.concat (dir ()) "traced.journal" in
      let w = Persist.Journal.create path in
      Layers.traced_pass ~name:"fault_soak" ~seed ~budget_ms ~slots
        ~reference:(fun slot -> Some digests.(slot))
        ~ledger ~attempted
        ~finish:(fun c ->
            Persist.Journal.close w;
            c.Layers.journal_bytes <-
              Int64.to_int (In_channel.with_open_bin path In_channel.length))
        ~untraced:(fun slot ->
            let cfg = configs.(slot / budget) and j = slot mod budget in
            let target = (Campaign.leg_of_job cfg j).Campaign.target in
            let seed = Campaign.engine_seed cfg j in
            let plan = Campaign.plan_of_job cfg j in
            fun () ->
              ignore (Runner.default_exec ~guard:ignore target ~seed plan))
        (fun tr c slot ->
           traced tr c w configs.(slot / budget) (slot mod budget) ~item:slot)
    end
  in
  let covs = Array.to_list coverage |> List.filter_map Fun.id in
  { Measure.attempted = !attempted;
    failed = ledger.Measure.fails;
    problems = ledger.Measure.why @ words_problems @ probes;
    metrics;
    info =
      [ ("items_digest", Digest.to_hex (Digest.string (String.concat "," covs)));
        ("items", string_of_int s.Measure.lat_ms.Measure.len);
        ("campaigns", string_of_int !n);
        ("item_words_drift", string_of_int slots.Measure.drift) ] }
