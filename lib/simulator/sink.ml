(* Trace sinks: the engine's observability abstraction.

   The engine emits every observable event of a run — inputs, outputs,
   sends, deliveries, drops, automaton steps — into exactly one sink.  The
   default sink is [recorder], which reproduces the historical behaviour of
   recording the full input/output history into a [Trace.t] (so all
   [Properties] checkers are unchanged).  Long sweeps that only need
   aggregate numbers use [counters], which keeps O(1) scalars plus compact
   unboxed latency samples instead of a per-entry list; offline analysis
   streams events with [jsonl].

   Sinks are plain records of closures, so custom observers compose with
   the shipped ones through [tee].  A sink is private to one run: the
   engine calls it from a single domain, in deterministic event order. *)

open Types

type t = {
  on_input : at:time -> proc:proc_id -> Io.input -> unit;
  on_output : at:time -> proc:proc_id -> Io.output -> unit;
  on_send : Msg.envelope -> unit;
  on_deliver : at:time -> Msg.envelope -> unit;
  on_drop : at:time -> Msg.envelope -> unit;
  on_step : at:time -> proc:proc_id -> unit;
  on_crash : at:time -> proc:proc_id -> unit;
  on_recover : at:time -> proc:proc_id -> unit;
}

let null =
  { on_input = (fun ~at:_ ~proc:_ _ -> ());
    on_output = (fun ~at:_ ~proc:_ _ -> ());
    on_send = (fun _ -> ());
    on_deliver = (fun ~at:_ _ -> ());
    on_drop = (fun ~at:_ _ -> ());
    on_step = (fun ~at:_ ~proc:_ -> ());
    on_crash = (fun ~at:_ ~proc:_ -> ());
    on_recover = (fun ~at:_ ~proc:_ -> ()) }

let tee a b =
  { on_input = (fun ~at ~proc i -> a.on_input ~at ~proc i; b.on_input ~at ~proc i);
    on_output = (fun ~at ~proc o -> a.on_output ~at ~proc o; b.on_output ~at ~proc o);
    on_send = (fun env -> a.on_send env; b.on_send env);
    on_deliver = (fun ~at env -> a.on_deliver ~at env; b.on_deliver ~at env);
    on_drop = (fun ~at env -> a.on_drop ~at env; b.on_drop ~at env);
    on_step = (fun ~at ~proc -> a.on_step ~at ~proc; b.on_step ~at ~proc);
    on_crash = (fun ~at ~proc -> a.on_crash ~at ~proc; b.on_crash ~at ~proc);
    on_recover = (fun ~at ~proc -> a.on_recover ~at ~proc; b.on_recover ~at ~proc) }

(* A sink that calls [f] once per observed event, ignoring the payload.
   This is the soak runner's guard hook: teed in front of a recorder it
   turns every engine-observable event into a chance to check an event
   budget or a wall-clock deadline (Harness.Clock) and raise out of a
   wedged run.  Zero allocation per event. *)
let on_every f =
  { on_input = (fun ~at:_ ~proc:_ _ -> f ());
    on_output = (fun ~at:_ ~proc:_ _ -> f ());
    on_send = (fun _ -> f ());
    on_deliver = (fun ~at:_ _ -> f ());
    on_drop = (fun ~at:_ _ -> f ());
    on_step = (fun ~at:_ ~proc:_ -> f ());
    on_crash = (fun ~at:_ ~proc:_ -> f ());
    on_recover = (fun ~at:_ ~proc:_ -> f ()) }

(* ------------------------------------------------------------------ *)
(* Full recorder: the historical Trace.t behaviour                     *)
(* ------------------------------------------------------------------ *)

let recorder trace =
  { on_input = (fun ~at ~proc i -> Trace.record_input trace ~time:at ~proc i);
    on_output = (fun ~at ~proc o -> Trace.record_output trace ~time:at ~proc o);
    on_send = (fun _ -> Trace.count_sent trace);
    on_deliver = (fun ~at:_ _ -> Trace.count_delivered trace);
    on_drop = (fun ~at:_ _ -> Trace.count_dropped trace);
    on_step = (fun ~at:_ ~proc:_ -> Trace.count_step trace);
    (* Crash/restart marks carry no input/output history, so the recorder
       ignores them: traces of crash-stop runs stay byte-identical. *)
    on_crash = (fun ~at:_ ~proc:_ -> ());
    on_recover = (fun ~at:_ ~proc:_ -> ()) }

(* ------------------------------------------------------------------ *)
(* Counters-only sink with per-process latency histograms              *)
(* ------------------------------------------------------------------ *)

(* Growable unboxed int buffer: one word per sample, amortized. *)
type samples = { mutable buf : int array; mutable len : int }

let samples_create () = { buf = [||]; len = 0 }

let samples_push s x =
  if s.len = Array.length s.buf then begin
    let cap =
      if 2 * Array.length s.buf < 64 then 64 else 2 * Array.length s.buf
    in
    (* detlint: allow A1 amortized doubling: the growth copy is off the steady-state per-sample path *)
    let buf = Array.make cap 0 in
    Array.blit s.buf 0 buf 0 s.len;
    s.buf <- buf
  end;
  s.buf.(s.len) <- x;
  s.len <- s.len + 1

type counters = {
  n : int;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable steps : int;
  mutable inputs : int;
  mutable outputs : int;
  mutable last_time : time;
  latency : samples array;  (* indexed by destination process *)
}

let counters ~n =
  { n; sent = 0; delivered = 0; dropped = 0; steps = 0; inputs = 0;
    outputs = 0; last_time = 0;
    latency = Array.init n (fun _ -> samples_create ()) }

let counters_sink c =
  { on_input = (fun ~at ~proc:_ _ ->
        c.inputs <- c.inputs + 1;
        if at > c.last_time then c.last_time <- at);
    on_output = (fun ~at ~proc:_ _ ->
        c.outputs <- c.outputs + 1;
        if at > c.last_time then c.last_time <- at);
    on_send = (fun _ -> c.sent <- c.sent + 1);
    on_deliver = (fun ~at env ->
        c.delivered <- c.delivered + 1;
        samples_push c.latency.(env.Msg.dst) (at - env.Msg.sent_at));
    on_drop = (fun ~at:_ _ -> c.dropped <- c.dropped + 1);
    on_step = (fun ~at:_ ~proc:_ -> c.steps <- c.steps + 1);
    on_crash = (fun ~at ~proc:_ -> if at > c.last_time then c.last_time <- at);
    on_recover = (fun ~at ~proc:_ -> if at > c.last_time then c.last_time <- at) }

let sent c = c.sent
let delivered c = c.delivered
let dropped c = c.dropped
let steps c = c.steps
let inputs c = c.inputs
let outputs c = c.outputs
let last_time c = c.last_time

let latencies c p = Array.sub c.latency.(p).buf 0 c.latency.(p).len

let all_latencies c =
  Array.concat (List.map (fun s -> Array.sub s.buf 0 s.len) (Array.to_list c.latency))

type latency_summary =
  { count : int; p50 : int; p95 : int; p99 : int; p999 : int; max : int }

(* Nearest-rank selection, all in integers: the value at 1-based rank
   ceil(permille/1000 * len) of the ascending-sorted sample.  Quantiles of
   integer samples are themselves sample members, identical on every
   platform — no float rounding at the p999 tail. *)
let nearest_rank sorted ~permille =
  let len = Array.length sorted in
  if len = 0 then invalid_arg "Sink.nearest_rank: empty sample";
  if permille < 0 || permille > 1000 then
    invalid_arg "Sink.nearest_rank: permille out of [0, 1000]";
  let rank = ((permille * len) + 999) / 1000 in
  sorted.(max 0 (rank - 1))

let summarize a =
  if Array.length a = 0 then None
  else begin
    let sorted = Array.copy a in
    Array.sort Int.compare sorted;
    let pct permille = nearest_rank sorted ~permille in
    Some
      { count = Array.length sorted;
        p50 = pct 500;
        p95 = pct 950;
        p99 = pct 990;
        p999 = pct 999;
        max = sorted.(Array.length sorted - 1) }
  end

let latency_summary c p = summarize (latencies c p)
let total_latency_summary c = summarize (all_latencies c)

let pp_latency_summary ppf s =
  Fmt.pf ppf "n=%d p50=%d p95=%d p99=%d p999=%d max=%d" s.count s.p50 s.p95
    s.p99 s.p999 s.max

(* ------------------------------------------------------------------ *)
(* Streaming sinks: JSONL and binary framed                            *)
(* ------------------------------------------------------------------ *)

let json_escape = Persist.Frame.json_escape

(* The engine callbacks as [Persist.Frame] events, the one vocabulary both
   streaming formats encode.  Message payloads stay opaque to the
   simulator, so envelopes are identified by (uid, src, dst, times);
   inputs and outputs are rendered through their registered printers. *)
let frame_events ev =
  { on_input = (fun ~at ~proc i ->
        ev (Persist.Frame.Input
              { t = at; proc; v = Format.asprintf "%a" Io.pp_input i }));
    on_output = (fun ~at ~proc o ->
        ev (Persist.Frame.Output
              { t = at; proc; v = Format.asprintf "%a" Io.pp_output o }));
    on_send = (fun env ->
        ev (Persist.Frame.Send
              { t = env.Msg.sent_at; src = env.Msg.src; dst = env.Msg.dst;
                uid = env.Msg.uid }));
    on_deliver = (fun ~at env ->
        ev (Persist.Frame.Deliver
              { t = at; src = env.Msg.src; dst = env.Msg.dst;
                uid = env.Msg.uid; lat = at - env.Msg.sent_at }));
    on_drop = (fun ~at env ->
        ev (Persist.Frame.Drop
              { t = at; src = env.Msg.src; dst = env.Msg.dst;
                uid = env.Msg.uid }));
    on_step = (fun ~at:_ ~proc:_ -> ());
    on_crash = (fun ~at ~proc -> ev (Persist.Frame.Crash { t = at; proc }));
    on_recover = (fun ~at ~proc -> ev (Persist.Frame.Recover { t = at; proc })) }

(* One JSON object per event line ([Frame.event_to_jsonl]). *)
let jsonl ~emit = frame_events (fun e -> emit (Persist.Frame.event_to_jsonl e))

(* Exception-safe file-backed jsonl sink: the channel is flushed and
   closed even when the run raises mid-sweep. *)
let with_jsonl path f =
  let oc = Out_channel.open_text path in
  Fun.protect
    ~finally:(fun () ->
        (try Out_channel.flush oc with Sys_error _ -> ());
        Out_channel.close_noerr oc)
    (fun () ->
       f (jsonl ~emit:(fun s ->
           Out_channel.output_string oc s;
           Out_channel.output_char oc '\n')))

(* One framed [Frame] event record per [emit] call, no separators.
   Decoding a binary stream and exporting it with [Frame.to_jsonl]
   reproduces the jsonl stream byte for byte — both encode the same
   [frame_events] — and the differential test battery holds the two
   formats to that contract. *)
let binary ~emit = frame_events (fun e -> emit (Persist.Frame.event_record e))

(* File-backed binary sink: writes the format header, then one framed
   record per event; bracket-style like [with_jsonl]. *)
let with_binary path f =
  let oc = Out_channel.open_bin path in
  Fun.protect
    ~finally:(fun () ->
        (try Out_channel.flush oc with Sys_error _ -> ());
        Out_channel.close_noerr oc)
    (fun () ->
       Out_channel.output_string oc Persist.Frame.header;
       f (binary ~emit:(fun s -> Out_channel.output_string oc s)))
