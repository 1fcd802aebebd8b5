(* Layer accounting for the traced pass, taken from outside the program.

   The tracer keeps one "current layer" and charges the time and minor
   words elapsed since the previous switch to it, so every layer's figure
   is its self (exclusive) share: a sink callback made from inside a
   protocol callback is charged to the sink, not to the protocol, and the
   engine's own share is what remains of the run once the protocol and
   sink callbacks are taken out.  Switching reads the monotonic clock and
   [Gc.minor_words ()] (both unboxed) and updates float arrays in place,
   so the tracer allocates nothing per event; what it does allocate (the
   wrappers, once per node incarnation and per sink) is charged to its own
   [tracer] layer and reported.

   Spans (name, start, end, parent, item) are recorded for every item and
   every phase, with their real start and end, and kept in memory until
   the benchmark ends.  Callback time (protocol, sink) is summed into one
   span per (item, layer).  Span bookkeeping is charged to the tracer. *)

open Simulator

let other = 0
let engine = 1
let protocol = 2
let sink = 3
let tracer = 4
let parse = 5
let materialise = 6
let plan = 7
let extract = 8
let total_order = 9
let stability = 10
let causal = 11
let safety = 12
let watchdog = 13
let digest = 14
let decode = 15
let journal = 16

let names =
  [| "other"; "engine"; "protocol"; "sink"; "tracer"; "builder.parse";
     "builder.materialise"; "explorer.plan"; "properties.extract";
     "properties.total_order"; "properties.stability"; "properties.causal";
     "properties.safety"; "watchdog"; "digest"; "frame.decode";
     "soak.journal" |]

let n_layers = Array.length names

type spans = {
  mutable name : int array;  (** index into [names], or -1 for an item *)
  mutable parent : int array;
  mutable item : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable len : int;
}

type t = {
  ns : float array;  (** self time per layer *)
  words : float array;  (** self minor words per layer *)
  calls : int array;  (** callback calls per layer *)
  stack : int array;
  mutable depth : int;
  mutable cur : int;
  last : float array;  (** [| last clock reading; last minor-words reading |] *)
  mutable ae_digests : int;  (** anti-entropy digest envelopes sent *)
  mutable ae_delta_msgs : int;  (** application messages carried in deltas *)
  spans : spans;
  mutable item : int;  (** current item id *)
  mutable parent : int;  (** innermost open span *)
}

let create () =
  { ns = Array.make n_layers 0.;
    words = Array.make n_layers 0.;
    calls = Array.make n_layers 0;
    stack = Array.make 64 0;
    depth = 0;
    cur = other;
    last = [| Mono.now_ns (); Gc.minor_words () |];
    ae_digests = 0;
    ae_delta_msgs = 0;
    spans =
      { name = [||]; parent = [||]; item = [||]; start = [||]; stop = [||];
        len = 0 };
    item = -1;
    parent = -1 }

let charge t =
  let now = Mono.now_ns () in
  let w = Gc.minor_words () in
  let c = t.cur in
  t.ns.(c) <- t.ns.(c) +. (now -. t.last.(0));
  t.words.(c) <- t.words.(c) +. (w -. t.last.(1));
  t.last.(0) <- now;
  t.last.(1) <- w

let enter t layer =
  charge t;
  t.stack.(t.depth) <- t.cur;
  t.depth <- t.depth + 1;
  t.cur <- layer

(* Enter a callback layer, counting the call. *)
let call t layer =
  t.calls.(layer) <- t.calls.(layer) + 1;
  enter t layer

let leave t =
  charge t;
  t.depth <- t.depth - 1;
  t.cur <- t.stack.(t.depth)

(* Totals so far, for per-item deltas. *)
type snapshot = { s_ns : float array; s_words : float array }

let snapshot t =
  charge t;
  { s_ns = Array.copy t.ns; s_words = Array.copy t.words }

(* Forget a half-finished item (a raising callback leaves the stack
   unbalanced). *)
let reset t =
  charge t;
  t.depth <- 0;
  t.cur <- other

(* ------------------------------------------------------------------ *)
(* Wrappers                                                            *)
(* ------------------------------------------------------------------ *)

let wrap_node t (node : Engine.node) : Engine.node =
  { Engine.on_message =
      (fun ~src p ->
         call t protocol;
         node.Engine.on_message ~src p;
         leave t);
    on_timer =
      (fun () ->
         call t protocol;
         node.Engine.on_timer ();
         leave t);
    on_input =
      (fun i ->
         call t protocol;
         node.Engine.on_input i;
         leave t) }

(* [make_node] runs at start and at every restart; building the node is
   protocol work, building its wrapper is the tracer's. *)
let wrap_make t make ctx =
  enter t protocol;
  let node, handle = make ctx in
  enter t tracer;
  let wrapped = (wrap_node t node, handle) in
  leave t;
  leave t;
  wrapped

let count_payload t (env : Msg.envelope) =
  match env.Msg.payload with
  | Ec_core.Anti_entropy.Ae_digest _ -> t.ae_digests <- t.ae_digests + 1
  | Ec_core.Anti_entropy.Ae_delta msgs ->
    t.ae_delta_msgs <- t.ae_delta_msgs + List.length msgs
  | _ -> ()

let wrap_sink t (s : Sink.t) : Sink.t =
  enter t tracer;
  let wrapped =
    { Sink.on_input =
        (fun ~at ~proc i ->
           call t sink;
           s.Sink.on_input ~at ~proc i;
           leave t);
      on_output =
        (fun ~at ~proc o ->
           call t sink;
           s.Sink.on_output ~at ~proc o;
           leave t);
      on_send =
        (fun env ->
           call t sink;
           count_payload t env;
           s.Sink.on_send env;
           leave t);
      on_deliver =
        (fun ~at env ->
           call t sink;
           s.Sink.on_deliver ~at env;
           leave t);
      on_drop =
        (fun ~at env ->
           call t sink;
           s.Sink.on_drop ~at env;
           leave t);
      on_step =
        (fun ~at ~proc ->
           call t sink;
           s.Sink.on_step ~at ~proc;
           leave t);
      on_crash =
        (fun ~at ~proc ->
           call t sink;
           s.Sink.on_crash ~at ~proc;
           leave t);
      on_recover =
        (fun ~at ~proc ->
           call t sink;
           s.Sink.on_recover ~at ~proc;
           leave t) }
  in
  leave t;
  wrapped

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let grow sp =
  let cap = max 4096 (2 * Array.length sp.name) in
  let ints a = Array.append a (Array.make (cap - Array.length a) 0) in
  let floats a = Array.append a (Array.make (cap - Array.length a) 0.) in
  sp.name <- ints sp.name;
  sp.parent <- ints sp.parent;
  sp.item <- ints sp.item;
  sp.start <- floats sp.start;
  sp.stop <- floats sp.stop

(* Open a span under the innermost open one; call inside the tracer
   layer (it may grow the arrays). *)
let open_span t ~name ~start =
  let sp = t.spans in
  if sp.len = Array.length sp.name then grow sp;
  let id = sp.len in
  sp.name.(id) <- name;
  sp.parent.(id) <- t.parent;
  sp.item.(id) <- t.item;
  sp.start.(id) <- start;
  sp.stop.(id) <- start;
  sp.len <- id + 1;
  t.parent <- id;
  id

let close_span t id =
  t.spans.stop.(id) <- Mono.now_ns ();
  t.parent <- t.spans.parent.(id)

(* Run [f] as one phase of [layer], with a span of its own. *)
let phase t layer f =
  enter t tracer;
  let id = open_span t ~name:layer ~start:(Mono.now_ns ()) in
  enter t layer;
  let r = f () in
  leave t;
  close_span t id;
  leave t;
  r

(* An item: its span, and the totals when it began. *)
type item = { span : int; before : snapshot }

let begin_item t ~item =
  reset t;
  t.item <- item;
  t.parent <- -1;
  enter t tracer;
  let span = open_span t ~name:(-1) ~start:(Mono.now_ns ()) in
  leave t;
  { span; before = snapshot t }

(* Close the item's span and add one span per callback layer, as long as
   that layer's summed self time, from the item's start.  Returns the
   totals at the item's end. *)
let end_item t it =
  let after = snapshot t in
  enter t tracer;
  close_span t it.span;
  let start = t.spans.start.(it.span) in
  List.iter
    (fun l ->
       let d = after.s_ns.(l) -. it.before.s_ns.(l) in
       if d > 0. then begin
         t.parent <- it.span;
         let id = open_span t ~name:l ~start in
         t.spans.stop.(id) <- start +. d
       end)
    [ protocol; sink ];
  leave t;
  t.parent <- -1;
  after

let write_spans t ~origin path =
  let sp = t.spans in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "id\tparent\titem\tname\tstart_ns\tend_ns\n";
      for i = 0 to sp.len - 1 do
        let name = if sp.name.(i) < 0 then "item" else names.(sp.name.(i)) in
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%.0f\t%.0f\n" i sp.parent.(i)
          sp.item.(i) name (sp.start.(i) -. origin) (sp.stop.(i) -. origin)
      done)
