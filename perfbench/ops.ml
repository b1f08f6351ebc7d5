(* One benchmark operation is the sequence of public library calls a
   [zeusc] subcommand makes, from source bytes to output rendered the
   way the CLI prints it.  Each call sits in a {!Trace.span}
   named after its layer; the per-operation {!meter} collects the
   end-to-end figures (first simulated cycle, time inside the
   simulator, cycles simulated). *)

open Zeus

type meter = {
  mutable start : int;  (** operation start, ns *)
  mutable first_cycle : int;  (** ns from start to end of cycle 1; -1 if none *)
  mutable sim_ns : int;  (** time inside [Sim.step] / [Sim.run_batch] *)
  mutable cycles : int;  (** simulated cycles, all runs and lanes *)
}

let meter = { start = 0; first_cycle = -1; sim_ns = 0; cycles = 0 }

let reset_meter () =
  meter.first_cycle <- -1;
  meter.sim_ns <- 0;
  meter.cycles <- 0;
  meter.start <- Trace.now ()

let mark_first_cycle () =
  if meter.first_cycle < 0 then meter.first_cycle <- Trace.now () - meter.start

(* time a simulation call and credit its cycles *)
let simulate ~cycles f =
  let t0 = Trace.now () in
  let r = f () in
  meter.sim_ns <- meter.sim_ns + (Trace.now () - t0);
  meter.cycles <- meter.cycles + cycles;
  r

(* The CLI writes through a 64 KiB stdout buffer; here a full buffer is
   dropped instead of written, so memory holds what the CLI's would.
   [out] keeps a short command's whole output for the checks. *)
let out = Buffer.create (1 lsl 16)

let emit s pos len =
  if Buffer.length out + len > 1 lsl 16 then Buffer.clear out;
  if len <= 1 lsl 16 then Buffer.add_substring out s pos len

let ppf = Format.make_formatter emit ignore
let span = Trace.span

(* the CLI writes diagnostics with [Fmt.epr "%a@."]; here both streams
   go to the one buffer, in program order *)
let report_diags diags = List.iter (fun d -> Fmt.pf ppf "%a@." Diag.pp d) diags

(* [Zeus.compile], one span per layer; a compile error fails the
   operation after rendering its diagnostics *)
let compile_exn src =
  let bag = Diag.Bag.create () in
  let fail () =
    report_diags (Diag.Bag.errors bag);
    failwith "compile error"
  in
  match span "parser" (fun () -> Parser.program ~bag src) with
  | None, _ -> fail ()
  | Some prog, _ ->
      let design = span "elaborate" (fun () -> Elaborate.program ~bag prog) in
      Trace.count "elaborate.nets" (Netlist.net_count design.Elaborate.netlist);
      if Diag.Bag.has_errors bag then fail ()
      else if span "check" (fun () -> Check.run design) then design
      else fail ()

(* The graph, schedule and bytecode that [Sim.create] and
   [Verilog.export] build internally, built once more in their own
   spans so the traced run can time those layers. *)
let structure ~compiled design =
  if !Trace.on then begin
    let g = span "graph" (fun () -> Graph.build design) in
    let s = span "sched" (fun () -> Sched.build g) in
    if compiled then ignore (span "compile" (fun () -> Compile.build g s))
  end

let count_compiled h =
  match Sim.compiled_stats h with
  | Some c ->
      Trace.count "compile.ops" c.Sim.c_ops;
      Trace.count "compile.vector_lanes" c.Sim.c_vector_lanes
  | None -> ()

let render_runtime_errors errs =
  List.iter
    (fun (e : Sim.runtime_error) ->
      Fmt.pf ppf "runtime error (cycle %d) [%s] %s: %s@." e.Sim.err_cycle
        e.Sim.err_code e.Sim.err_net e.Sim.err_message)
    errs

(* ---- design-check commands ---- *)

(* zeusc check *)
let check src =
  let design = compile_exn src in
  span "report" (fun () ->
      Fmt.pf ppf "OK: %s@." (Netlist.stats design.Elaborate.netlist);
      report_diags
        (List.filter
           (fun (d : Diag.t) -> d.Diag.severity = Diag.Warning)
           (Diag.Bag.all design.Elaborate.diags)));
  design

(* zeusc lint (text format) *)
let lint src =
  let design = compile_exn src in
  let r = span "lint" (fun () -> Lint.run design) in
  Trace.count "lint.splits" r.Lint.splits;
  span "report" (fun () ->
      List.iter
        (fun (v : Lint.net_verdict) ->
          Fmt.pf ppf "net '%s' (%s, %d producers): %s — %s@." v.Lint.v_name
            (Etype.kind_to_string v.Lint.v_kind)
            v.Lint.v_producers
            (Lint.classification_to_string v.Lint.v_class)
            v.Lint.v_detail)
        r.Lint.verdicts;
      report_diags r.Lint.findings;
      Fmt.pf ppf "%s@." (Lint.summary r));
  r

(* zeusc opt (text format) *)
let opt src =
  let design = compile_exn src in
  let r = span "opt" (fun () -> Reduce.run design) in
  Trace.count "opt.nets_eliminated" r.Reduce.stats.Reduce.nets_eliminated;
  span "report" (fun () -> Fmt.pf ppf "%a@." Reduce.pp_stats r.Reduce.stats);
  r

(* zeusc prove (text format) *)
let prove src =
  let design = compile_exn src in
  let r = span "prove" (fun () -> Seqprove.run design) in
  Trace.count "prove.splits" r.Seqprove.sp_splits;
  Trace.count "prove.upgraded" (List.length r.Seqprove.sp_upgraded);
  span "report" (fun () ->
      List.iter
        (fun (_, name) -> Fmt.pf ppf "upgraded '%s': safe-sequential@." name)
        r.Seqprove.sp_upgraded;
      report_diags r.Seqprove.sp_findings;
      List.iter
        (fun (w : Seqprove.witness) ->
          Fmt.pf ppf "witness '%s' conflicts at cycle %d:@." w.Seqprove.w_name
            w.Seqprove.w_cycle;
          Array.iteri
            (fun c pokes ->
              Fmt.pf ppf "  cycle %d:%s@." c
                (String.concat ""
                   (List.map
                      (fun (_, p, v) -> Fmt.str " %s=%s" p (Logic.to_string v))
                      pokes)))
            w.Seqprove.w_trace)
        r.Seqprove.sp_witnesses;
      Fmt.pf ppf "%s@." (Seqprove.summary r));
  r

(* zeusc export --verilog *)
let export src =
  let design = compile_exn src in
  structure ~compiled:false design;
  match span "export" (fun () -> Verilog.export design) with
  | Error e -> failwith ("export: " ^ Verilog.error_to_string e)
  | Ok v ->
      Trace.count "export.bytes" (String.length v.Verilog.text);
      span "report" (fun () -> emit v.Verilog.text 0 (String.length v.Verilog.text));
      v

(* Every testbench input pin except CLK, for poking. *)
let input_pins (design : Elaborate.design) =
  List.filter
    (fun n -> n <> design.Elaborate.clk_net)
    (Check.top_input_nets design)

(* zeusc sim -n [cycles] [--engine] with every input pin poked to 0 when
   [drive] (the design-check edit loop) or left unpoked (the violation
   workload); watched: every top-level signal, after the last cycle. *)
let sim ?(engine = Sim.Incremental) ~drive ~cycles src =
  let design = compile_exn src in
  let compiled = engine = Sim.Compiled in
  structure ~compiled design;
  let h =
    span "sim" (fun () ->
        let h = Sim.create ~engine design in
        if drive then begin
          let pins = input_pins design in
          Sim.poke_nets h pins (List.map (fun _ -> Logic.Zero) pins)
        end;
        h)
  in
  if compiled then count_compiled h;
  simulate ~cycles (fun () ->
      span "sim" (fun () ->
          for _ = 1 to cycles do
            Sim.step h;
            mark_first_cycle ()
          done));
  Trace.count "sim.node_visits" (Sim.node_visits h);
  let errs = span "errors" (fun () -> Sim.runtime_errors h) in
  Trace.count "sim.runtime_errors" (List.length errs);
  let tops = List.map fst design.Elaborate.tops in
  let watched =
    span "report" (fun () ->
        let w = List.map (fun p -> (p, Sim.peek h p)) tops in
        List.iter
          (fun (p, bits) ->
            Fmt.pf ppf "%s=%a@." p Fmt.(list ~sep:nop Logic.pp) bits)
          w;
        render_runtime_errors errs;
        w)
  in
  (watched, errs)

(* ---- sim-stimulus: zeusc sim --batch ---- *)

(* A smoke cycle of the deck's first run on the template handle (the
   first simulated cycle a designer sees), then the whole deck through
   [Sim.run_batch], rendered like [zeusc sim --batch]. *)
let batch ~engine ~jobs ~lanes src (runs : Sim.batch_run list) =
  let design = compile_exn src in
  let compiled = engine = Sim.Compiled in
  structure ~compiled design;
  let tmpl = span "sim" (fun () -> Sim.create ~engine ~jobs:1 design) in
  if compiled then count_compiled tmpl;
  let first = List.hd runs in
  simulate ~cycles:1 (fun () ->
      span "sim" (fun () ->
          List.iter (fun (p, v) -> Sim.poke tmpl p v) first.Sim.br_stim.(0);
          Sim.step tmpl;
          mark_first_cycle ()));
  Trace.count "sim.node_visits" (Sim.node_visits tmpl);
  let smoke_errors = span "errors" (fun () -> Sim.runtime_errors tmpl) in
  span "sim" (fun () -> Sim.restart tmpl);
  let cycles = List.fold_left (fun a r -> a + r.Sim.br_cycles) 0 runs in
  let results, st =
    simulate ~cycles (fun () ->
        span "batch" (fun () -> Sim.run_batch ~jobs ~lanes tmpl runs))
  in
  Trace.count "batch.lane_runs" st.Sim.bs_lane_runs;
  Trace.count "batch.serial_runs" st.Sim.bs_serial_runs;
  Trace.count "batch.lane_groups" st.Sim.bs_lane_groups;
  let errs =
    span "errors" (fun () ->
        smoke_errors
        @ List.concat_map (fun (r : Sim.batch_result) -> r.Sim.bres_errors) results)
  in
  Trace.count "sim.runtime_errors" (List.length errs);
  span "report" (fun () ->
      List.iteri
        (fun i (res : Sim.batch_result) ->
          Fmt.pf ppf "run %d:" i;
          List.iter
            (fun (p, bits) ->
              Fmt.pf ppf " %s=%a" p Fmt.(list ~sep:nop Logic.pp) bits)
            res.Sim.bres_watched;
          Fmt.pf ppf "@.";
          List.iter
            (fun (e : Sim.runtime_error) ->
              Fmt.pf ppf "runtime error (run %d, cycle %d) [%s] %s: %s@." i
                e.Sim.err_cycle e.Sim.err_code e.Sim.err_net e.Sim.err_message)
            res.Sim.bres_errors)
        results);
  (results, errs)
