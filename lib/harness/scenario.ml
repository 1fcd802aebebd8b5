(* Scenario presets: the raw process-by-process wiring lives in [Stacks],
   and every run_* entrypoint below is a thin preset over [Builder] — an
   opaque-base builder carrying the caller's setup, inputs and knobs,
   interpreted by [Builder.run]. *)

let builder_of inputs setup stack =
  { (Builder.of_setup setup stack) with Builder.workload = Builder.Raw inputs }

let trace_of (o : Builder.outcome) =
  match o.Builder.trace with
  | Some trace -> trace
  | None -> assert false (* run without ~catch never loses the trace *)

let run_etob ?(inputs = []) ?mutation setup impl =
  trace_of
    (Builder.run
       { (builder_of inputs setup (Builder.Etob impl)) with Builder.mutation })

let run_etob_ae ?(inputs = []) ?mutation ?ae_config ?ae_mutation setup =
  let o =
    Builder.run
      { (builder_of inputs setup Builder.Etob_ae) with
        Builder.mutation;
        ae_config;
        ae_mutation }
  in
  match o.Builder.handles with
  | Builder.Ae_handles handles -> (trace_of o, handles)
  | _ -> assert false

let run_recoverable ?(inputs = []) ?rconfig ?mutation ?etob_mutation ?commits
    ?ae ?ae_mutation ?stores setup =
  let o =
    Builder.run
      { (builder_of inputs setup (Builder.Recoverable { ae = ae <> None }))
        with
        Builder.rconfig;
        rmutation = mutation;
        mutation = etob_mutation;
        commits;
        ae_config = ae;
        ae_mutation;
        stores }
  in
  match o.Builder.handles with
  | Builder.Recoverable_handles (handles, stores) ->
    (trace_of o, handles, stores)
  | _ -> assert false

let run_gossip_order ?(inputs = []) setup =
  trace_of (Builder.run (builder_of inputs setup Builder.Gossip))

let run_etob_with_commits ?(inputs = []) setup =
  trace_of (Builder.run (builder_of inputs setup Builder.Etob_commits))

let run_ec ?(inputs = []) setup stack ~propose_value ~max_instance =
  trace_of
    (Builder.run
       { (builder_of inputs setup stack) with
         Builder.propose = Some propose_value;
         max_instance })
