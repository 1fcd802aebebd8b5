(* The traced pass's shared pieces: an item's engine run, its checkers
   and its digest, each called through public functions under the
   tracer; plus the per-layer metric table every workload prints. *)

open Simulator
open Harness
open Ec_core

(* Everything the traced pass counts, summed over traced items. *)
type counts = {
  mutable items : int;
  mutable traced_ms : float;  (** traced items' time, all phases *)
  mutable item_ms : float;
      (** traced time of the layers an untraced item runs *)
  mutable untraced_ms : float;  (** the same items, untraced *)
  mutable untraced_words : float;  (** the same items' exact minor words *)
  mutable compared_words : float;
      (** minor words of the layers an untraced item runs *)
  mutable steps : int;
  mutable sent : int;
  mutable delivered : int;
  mutable revisions : int;
  mutable digest_bytes : int;
  mutable frame_bytes : int;
  mutable frame_records : int;
  mutable appends : int;
  mutable syncs : int;
  mutable restarts : int;
  mutable retransmitted : int;
  mutable journal_bytes : int;
  mutable clean : int;
}

let counts () =
  { items = 0; traced_ms = 0.; item_ms = 0.; untraced_ms = 0.; untraced_words = 0.;
    compared_words = 0.; steps = 0; sent = 0; delivered = 0; revisions = 0;
    digest_bytes = 0; frame_bytes = 0; frame_records = 0; appends = 0;
    syncs = 0; restarts = 0; retransmitted = 0; journal_bytes = 0; clean = 0 }

(* Run the engine as [Builder.run] does, with every node and the sink
   wrapped.  [extra] is teed after the capturing recorder, as the
   builder tees its trace file. *)
let run_engine tr ?extra (setup : Stacks.setup) ~make_node ~inputs c =
  let capture = Trace.create ~n:setup.Stacks.n in
  let recorder = Sink.recorder capture in
  let sink =
    match extra with None -> recorder | Some s -> Sink.tee recorder s
  in
  let config =
    { (Stacks.engine_config setup) with
      Engine.sink = Some (Tracer.wrap_sink tr sink) }
  in
  let make_node = Tracer.wrap_make tr make_node in
  let _, handles =
    Tracer.phase tr Tracer.engine (fun () ->
        Engine.run_with config ~make_node ~inputs)
  in
  c.steps <- c.steps + Trace.steps capture;
  c.sent <- c.sent + Trace.sent capture;
  c.delivered <- c.delivered + Trace.delivered capture;
  (capture, handles)

(* [Builder.run]'s checker phase, one property at a time. *)
let checks tr (b : Builder.t) (setup : Stacks.setup) trace c =
  if b.Builder.checkers = [] then []
  else begin
    let erun =
      Tracer.phase tr Tracer.extract (fun () ->
          Properties.etob_run_of_trace setup.Stacks.pattern trace)
    in
    let validity, no_creation, no_duplication, agreement, distinct_broadcasts
        =
      Tracer.phase tr Tracer.safety (fun () ->
          ( Properties.check_validity erun,
            Properties.check_no_creation erun,
            Properties.check_no_duplication erun,
            Properties.check_agreement erun,
            Properties.check_distinct_broadcasts erun ))
    in
    let causal_order =
      Tracer.phase tr Tracer.causal (fun () -> Properties.check_causal_order erun)
    in
    let tau_stability =
      Tracer.phase tr Tracer.stability (fun () -> Properties.stability_time erun)
    in
    let tau_total_order =
      Tracer.phase tr Tracer.total_order (fun () ->
          Properties.total_order_time erun)
    in
    let report =
      { Properties.validity; no_creation; no_duplication; agreement;
        causal_order; distinct_broadcasts; tau_stability; tau_total_order }
    in
    for p = 0 to setup.Stacks.n - 1 do
      c.revisions <- c.revisions + List.length (Properties.revisions erun p)
    done;
    List.concat_map
      (function
        | Builder.Etob_spec policy ->
          let tau_bound =
            match policy with
            | Builder.Tau_auto -> Builder.tau_bound b
            | Builder.Tau_fixed bound -> bound
          in
          Properties.etob_violations ~tau_bound report
        | Builder.Watchdog policy ->
          let settle, bound =
            match policy with
            | Builder.Wd_auto -> (Builder.watchdog_settle b, Builder.watchdog_bound b)
            | Builder.Wd_fixed { settle; bound } -> (settle, bound)
          in
          Tracer.phase tr Tracer.watchdog (fun () ->
              Watchdog.violations (Watchdog.check ~settle ~bound erun)))
      b.Builder.checkers
  end

(* [Builder.run ~digest:true]'s digest. *)
let digest tr trace c =
  Tracer.phase tr Tracer.digest (fun () ->
      let text = Format.asprintf "%a" Trace.pp trace in
      c.digest_bytes <- c.digest_bytes + String.length text;
      Digest.to_hex (Digest.string text))

(* ------------------------------------------------------------------ *)
(* Per-item bookkeeping                                                *)
(* ------------------------------------------------------------------ *)

(* Close a traced item: add its time, and the time and minor words of
   [compared] layers (those an untraced item also runs), to [c], next to
   the untraced item's latency and words. *)
let end_item tr c (it : Tracer.item) ~compared ~untraced_ms ~untraced_words =
  let after = Tracer.end_item tr it in
  let span = it.Tracer.span in
  let sp = tr.Tracer.spans in
  c.items <- c.items + 1;
  c.traced_ms <- c.traced_ms +. ((sp.Tracer.stop.(span) -. sp.Tracer.start.(span)) /. 1e6);
  c.untraced_ms <- c.untraced_ms +. untraced_ms;
  c.untraced_words <- c.untraced_words +. untraced_words;
  List.iter
    (fun l ->
       let d (a : float array) (b : float array) = a.(l) -. b.(l) in
       c.item_ms <- c.item_ms +. (d after.Tracer.s_ns it.Tracer.before.Tracer.s_ns /. 1e6);
       c.compared_words <-
         c.compared_words +. d after.Tracer.s_words it.Tracer.before.Tracer.s_words)
    compared

(* ------------------------------------------------------------------ *)
(* The per-layer table                                                 *)
(* ------------------------------------------------------------------ *)

let m = Measure.m

(* Every per-layer metric, per traced item (zero where a workload does
   not run the layer).  Shares are of [item.traced_ms], the traced time
   of what an untraced item runs (set-up parsing, artifact decoding and
   journal records excluded). *)
let table (tr : Tracer.t) c ~clock_ns =
  let per x = if c.items = 0 then 0. else x /. float_of_int c.items in
  let ms l = per (tr.Tracer.ns.(l) /. 1e6) in
  let words l = per tr.Tracer.words.(l) in
  let count x = per (float_of_int x) in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let props =
    [ Tracer.extract; Tracer.total_order; Tracer.stability; Tracer.causal;
      Tracer.safety ]
  in
  let sum f ls = List.fold_left (fun acc l -> acc +. f l) 0. ls in
  let item_ms = per c.item_ms in
  let pct x = if item_ms = 0. then 0. else 100. *. x /. item_ms in
  let run_ms = sum ms [ Tracer.engine; Tracer.protocol; Tracer.sink ] in
  let journal_ms = ms Tracer.journal in
  [ m "builder.parse_ms" "ms" (ms Tracer.parse);
    m "builder.materialise_ms" "ms" (ms Tracer.materialise);
    m "explorer.plan_ms" "ms" (ms Tracer.plan);
    m "engine.self_ms" "ms" (ms Tracer.engine);
    m "engine.steps" "count" (count c.steps);
    m "engine.sent" "count" (count c.sent);
    m "engine.delivered_ratio" "ratio" (ratio c.delivered c.sent);
    m "engine.alloc_words_per_step" "words"
      (if c.steps = 0 then 0.
       else tr.Tracer.words.(Tracer.engine) /. float_of_int c.steps);
    m "protocol.ms" "ms" (ms Tracer.protocol);
    m "protocol.calls" "count" (count tr.Tracer.calls.(Tracer.protocol));
    m "protocol.alloc_words" "words" (words Tracer.protocol);
    m "sink.ms" "ms" (ms Tracer.sink);
    m "sink.events" "count" (count tr.Tracer.calls.(Tracer.sink));
    m "frame.bytes" "B" (count c.frame_bytes);
    m "frame.records" "count" (count c.frame_records);
    m "frame.decode_ms" "ms" (ms Tracer.decode);
    m "digest.ms" "ms" (ms Tracer.digest);
    m "digest.bytes" "B" (count c.digest_bytes);
    m "properties.extract_ms" "ms" (ms Tracer.extract);
    m "properties.total_order_ms" "ms" (ms Tracer.total_order);
    m "properties.stability_ms" "ms" (ms Tracer.stability);
    m "properties.causal_ms" "ms" (ms Tracer.causal);
    m "properties.safety_ms" "ms" (ms Tracer.safety);
    m "properties.revisions" "count" (count c.revisions);
    m "properties.alloc_words" "words" (sum words props);
    m "watchdog.ms" "ms" (ms Tracer.watchdog);
    m "store.appends" "count" (count c.appends);
    m "store.syncs" "count" (count c.syncs);
    m "store.restarts" "count" (count c.restarts);
    m "recoverable.retransmitted" "count" (count c.retransmitted);
    m "anti_entropy.digests_sent" "count" (count tr.Tracer.ae_digests);
    m "anti_entropy.delta_msgs" "count" (count tr.Tracer.ae_delta_msgs);
    m "soak.journal_ms" "ms" journal_ms;
    m "soak.journal_bytes" "B" (count c.journal_bytes);
    m "soak.clean_ratio" "ratio" (ratio c.clean c.items);
    m "item.traced_ms" "ms" item_ms;
    m "item.alloc_words" "words" (per c.untraced_words);
    m "trace.overhead_ms" "ms" (item_ms -. per c.untraced_ms);
    m "trace.clock_call_ns" "ns" clock_ns;
    m "trace.tracer_alloc_words" "words" (words Tracer.tracer);
    m "trace.unattributed_words" "words"
      (per (c.untraced_words -. c.compared_words));
    m "share.properties_pct" "%" (pct (sum ms props));
    m "share.run_pct" "%" (pct run_ms);
    m "share.check_pct" "%" (pct (sum ms (Tracer.watchdog :: props)));
    m "share.digest_pct" "%" (pct (ms Tracer.digest));
    (* The journal's share of an untraced job plus its journal record. *)
    m "share.journal_pct" "%"
      (if journal_ms = 0. then 0.
       else 100. *. journal_ms /. (per c.untraced_ms +. journal_ms)) ]

(* Per-layer words must add up to the untraced item's exact words, up to
   a fixed per-item difference (glue that [Builder.run] and the traced
   pass do differently, such as the outcome record); a tracer that
   allocated per event would miss by tens of thousands of words. *)
let unattributed_limit_words = 4096.

let check_words c ledger =
  if c.items > 0 then begin
    let per = (c.untraced_words -. c.compared_words) /. float_of_int c.items in
    if Float.abs per > unattributed_limit_words then
      Measure.fail ledger
        "per-layer words miss the untraced item's by %.0f words per item" per
  end

(* ------------------------------------------------------------------ *)
(* The traced pass                                                     *)
(* ------------------------------------------------------------------ *)

(* Trace the slots that ran untraced, in order, until [budget_ms] of
   traced time (at least one item).  Each traced item is preceded by an
   untraced run of the same item ([untraced slot] prepares it and returns
   the part to time), so the two are compared at the same moment of the
   run.  [trace_one tr c slot] returns the item's digest and
   violations, which must match [reference slot] and be clean.  [finish]
   completes [c] after the pass.  Returns the per-layer table and the
   benchmark's own problems (the word check), and writes the spans out. *)
let traced_pass ~name ~seed ~budget_ms ~(slots : Measure.slots) ~reference
    ~ledger ~attempted ?(finish = ignore) ~untraced trace_one =
  let tr = Tracer.create () and c = counts () in
  let paired = Measure.samples () in
  let origin = Mono.now_ns () in
  let slot = ref 0 in
  while
    !slot < Array.length slots.Measure.runs
    && slots.Measure.runs.(!slot) > 0
    && (!slot = 0 || c.traced_ms < budget_ms)
  do
    let i = !slot in
    Measure.timed paired (untraced i);
    let last (v : Measure.vec) = v.Measure.data.(v.Measure.len - 1) in
    (match
       trace_one tr c i ~untraced_ms:(last paired.Measure.lat_ms)
         ~untraced_words:(last paired.Measure.words)
     with
     | dg, v ->
       if Some dg <> reference i || v <> [] then
         Measure.fail ledger "traced item %d disagrees with its untraced runs" i
     | exception e ->
       Tracer.reset tr;
       Measure.fail ledger "traced item %d raised: %s" i (Printexc.to_string e));
    incr attempted;
    incr slot
  done;
  finish c;
  let words = Measure.ledger () in
  check_words c words;
  Tracer.write_spans tr ~origin
    (Filename.concat Measure.out_dir (Printf.sprintf "spans-%s-%d.tsv" name seed));
  (table tr c ~clock_ns:(Mono.call_ns ()), words.Measure.why)
