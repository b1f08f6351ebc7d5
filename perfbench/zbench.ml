(* zbench: the repository benchmark.  One process, one closed-loop
   client, one command at a time; see run.py for the command line.

     zbench.exe --workload W --seed N --seconds S --trace 0|1
     zbench.exe --selftest             corrupted answers must count as failed
     zbench.exe --gen-expected         print expected/sim.txt (firing engine)

   A run sets up five times (inputs, references and one checked
   warm-up pass; setup_s is the median), then runs a fixed number of
   passes over the workload's operation mix, each pass in a
   seed-shuffled order; the number of passes is a fixed function of
   --seconds, cut short (after a whole pass) only on a host more than
   1.5 times slower than [pass_ms] assumes.  The heap is compacted
   before each operation, outside the timed region.  Timings are
   reported at a reference host speed (see [ref_ns]).

   --trace 0 prints the end-to-end metrics.  --trace 1 alternates
   untraced and traced passes (spans around every library call),
   prints the per-layer metrics, writes the spans to
   .bench_out/spans-W-N.tsv and a per-layer table to stderr.  The last
   line of stdout is always the JSON result; --trace 0 also writes a
   per-operation latency table to stderr. *)

let workloads = [ "design-check"; "sim-stimulus"; "sim-violations" ]

(* wall time of one pass on a 2-core x86-64 VM, host-speed kernels and
   compactions included, in ms: sets the pass count so that a run
   measures about --seconds *)
let pass_ms = function
  | "design-check" -> 1100.
  | "sim-stimulus" -> 400.
  | _ -> 440.

let jobs = min 2 (Domain.recommended_domain_count ())
let lanes = 8

let setup ?(corrupt = false) workload seed =
  let expect () =
    let e = Workloads.load_expectations "perfbench/expected/sim.txt" in
    if corrupt then begin
      let key = "section8 drive=0 cycles=30000" in
      let w = Hashtbl.find e key in
      Hashtbl.replace e key { w with Workloads.nets = w.Workloads.nets + 1 };
      let key = "routing32 drive=1 cycles=1" in
      let w = Hashtbl.find e key in
      Hashtbl.replace e key { w with Workloads.watched = "corrupted" }
    end;
    e
  in
  match workload with
  | "design-check" -> Workloads.design_check ~corrupt ~expect:(expect ()) ()
  | "sim-violations" -> Workloads.sim_violations ~expect:(expect ())
  | _ ->
      Workloads.sim_stimulus ~corrupt ~rng:(Random.State.make [| seed; 7 |]) ~jobs
        ~lanes ()

(* ---- statistics ---- *)

let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ---- host speed ---- *)

(* On a shared 2-core x86-64 VM the host's speed for allocation-heavy
   work drifts by up to 2x over seconds to minutes: a fixed allocation
   loop took 110-240 ms back to back, and the medians of whole 25 s
   runs of design-check differed by 30%.  No median over one run
   averages that out.  So each operation is preceded by a fixed kernel
   of the same kind of work (hashing, sorting and allocating strings),
   on the same compacted heap, and every timing the benchmark reports
   is scaled to the reference speed at which the kernel takes
   [ref_ns]: a time [t] measured beside a kernel time [k] is reported
   as [t * ref_ns / k].  Over ten runs this brought the quartile
   spread of design-check's latencies and rate from 26-34% to 1-4%.  The
   kernel calls no Zeus code, so a change to the library moves [t]
   alone; a change to the GC settings would move both.  [ref_ns] is
   about the kernel's median on that VM. *)
let ref_ns = 2e6

let kernel () =
  let h = Hashtbl.create 16 in
  for i = 0 to 3999 do
    Hashtbl.replace h (string_of_int (i * 7919)) (i, [ i; i + 1 ])
  done;
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) h []) in
  let b = Buffer.create 16 in
  List.iter (fun k -> Buffer.add_string b k; Buffer.add_char b ' ') keys;
  ignore (Sys.opaque_identity (Buffer.length b))

(* the kernel's time, in ns; the heap is compacted before and after *)
let kernel_ns () =
  Gc.compact ();
  let t0 = Trace.now () in
  kernel ();
  let k = Trace.now () - t0 in
  Gc.compact ();
  k

(* ---- running ---- *)

type sample = {
  label : string;
  kernel : int;  (** the host-speed kernel's time before the operation *)
  ns : int;
  first_cycle : int;
  sim_ns : int;
  cycles : int;
}

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable samples : sample list;
}

let majors = ref 0

(* the host-speed kernel's time before each traced operation, by
   operation id, for [per_layer] *)
let op_kernel : (int, int) Hashtbl.t = Hashtbl.create 1024

(* One operation: time the host-speed kernel, compact the heap (a
   [zeusc] command starts on an empty one), then time the library
   calls; the check runs after the clock stops. *)
let run_op tally (op : Workloads.op) =
  Buffer.clear Ops.out;
  let kernel = kernel_ns () in
  if !Trace.on then Hashtbl.replace op_kernel !Trace.op_id kernel;
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  Ops.reset_meter ();
  let t0 = Ops.meter.Ops.start in
  let result =
    try Ok (Trace.span "op" op.Workloads.run) with e -> Error (Printexc.to_string e)
  in
  let ns = Trace.now () - t0 in
  if !Trace.on then majors := !majors + (Gc.quick_stat ()).Gc.major_collections - majors0;
  tally.attempted <- tally.attempted + 1;
  tally.samples <-
    {
      label = op.Workloads.label;
      kernel;
      ns;
      first_cycle = Ops.meter.Ops.first_cycle;
      sim_ns = Ops.meter.Ops.sim_ns;
      cycles = Ops.meter.Ops.cycles;
    }
    :: tally.samples;
  let verdict =
    match result with
    | Error e -> Error ("exception: " ^ e)
    | Ok checker -> ( try checker () with e -> Error ("check raised " ^ Printexc.to_string e))
  in
  match verdict with
  | Ok () -> ()
  | Error msg ->
      tally.failed <- tally.failed + 1;
      if tally.failed <= 5 then Printf.eprintf "FAILED %s: %s\n%!" op.Workloads.label msg

let run_passes tally ~seed ~first ~count ops =
  let ops = Array.of_list ops in
  for p = first to first + count - 1 do
    let order = Array.copy ops in
    shuffle (Random.State.make [| seed; p |]) order;
    Array.iteri
      (fun k op ->
        Trace.op_id := (p * Array.length ops) + k;
        run_op tally op)
      order
  done

(* ---- output ---- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* a metric that could not be measured (no samples) fails the run *)
let print_result ~correct ~attempted ~failed metrics =
  let correct = correct && List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  let json_number v = if Float.is_finite v then json_number v else "0" in
  let m =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed m

(* [ns] measured beside kernel time [kernel], in ms at the reference
   host speed *)
let ref_ms ~kernel ns = float_of_int ns *. ref_ns /. float_of_int kernel /. 1e6

(* per-operation medians and shares of the run, to stderr *)
let print_ops tally =
  let by = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace by s.label (s :: Option.value (Hashtbl.find_opt by s.label) ~default:[]))
    tally.samples;
  let total = List.fold_left (fun a s -> a +. ref_ms ~kernel:s.kernel s.ns) 0. tally.samples in
  Printf.eprintf "%-44s %5s %12s %12s %6s\n" "command" "n" "p50 ref ms" "p50 host ms" "share";
  List.iter
    (fun (l, xs) ->
      let scaled = List.map (fun s -> ref_ms ~kernel:s.kernel s.ns) xs in
      Printf.eprintf "%-44s %5d %12.2f %12.2f %5.1f%%\n" l (List.length xs) (median scaled)
        (median (List.map (fun s -> float_of_int s.ns /. 1e6) xs))
        (100. *. List.fold_left ( +. ) 0. scaled /. total))
    (List.sort compare (List.of_seq (Hashtbl.to_seq by)));
  Printf.eprintf "host-speed kernel: median %.3f ms (reference %.3f ms)\n%!"
    (median (List.map (fun s -> float_of_int s.kernel /. 1e6) tally.samples))
    (ref_ns /. 1e6)

(* Every timing is in ms at the reference host speed (see [ref_ns]).
   Rates are totals over the run.  Latency quantiles are over every
   command sample of the run: each pass holds the whole mix, so the
   rank a quantile reads is fixed by the mix, and a run has at least
   100 samples, so at least ten lie beyond p90 (see [measure]).
   first_cycle_ms is the median over commands of each command's
   median: first cycles form one tight cluster per command (compile
   time differs by design and engine), and with an even number of
   commands the median of the raw samples falls in the gap between two
   clusters, where it reads their noisy edges. *)
let end_to_end tally ~setup_s ~peak_heap_mb =
  print_ops tally;
  let s = tally.samples in
  let total f = List.fold_left (fun a x -> a +. f x) 0. s in
  let latency = List.map (fun x -> ref_ms ~kernel:x.kernel x.ns) s in
  let first_cycle = Hashtbl.create 64 in
  List.iter
    (fun x ->
      if x.first_cycle >= 0 then
        Hashtbl.replace first_cycle x.label
          (ref_ms ~kernel:x.kernel x.first_cycle
          :: Option.value (Hashtbl.find_opt first_cycle x.label) ~default:[]))
    s;
  [
    ("cmds_per_s", float_of_int (List.length s) /. (List.fold_left ( +. ) 0. latency /. 1e3), "1/s");
    ("cmd_p50_ms", median latency, "ms");
    ("cmd_p90_ms", quantile 0.9 latency, "ms");
    ("first_cycle_ms", median (List.of_seq (Seq.map median (Hashtbl.to_seq_values first_cycle))), "ms");
    ( "cycles_per_s",
      total (fun x -> float_of_int x.cycles)
      /. (total (fun x -> ref_ms ~kernel:x.kernel x.sim_ns) /. 1e3),
      "1/s" );
    ("peak_heap_mb", peak_heap_mb, "MB");
    ("setup_s", setup_s, "s");
  ]

let layers =
  [ "parser"; "elaborate"; "check"; "graph"; "sched"; "lint"; "opt"; "prove";
    "export"; "compile"; "sim"; "batch"; "errors"; "report" ]

let counters =
  [ "elaborate.nets"; "lint.splits"; "prove.splits"; "prove.upgraded";
    "opt.nets_eliminated"; "export.bytes"; "compile.ops"; "compile.vector_lanes";
    "sim.node_visits"; "sim.runtime_errors"; "batch.lane_runs";
    "batch.serial_runs"; "batch.lane_groups" ]

(* Per-layer self time (span minus children), calls and self
   allocation, per traced pass; the share of each operation's wall time
   the layers account for; counters per pass.  Times are in ms at the
   reference host speed, each span scaled by its operation's kernel
   time.  The tracing overhead leaves out the graph, sched and compile
   spans: they time extra builds that only traced passes make (see
   [Ops.structure]). *)
let per_layer ~workload ~seed ~passes ~untraced_ms ~traced_ms ~kernel_ms ~major =
  let spans = Trace.recorded () in
  let span_ms (s : Trace.span) ns = ref_ms ~kernel:(Hashtbl.find op_kernel s.Trace.op) ns in
  let extra_ms =
    Array.fold_left
      (fun a (s : Trace.span) ->
        if List.mem s.Trace.name [ "graph"; "sched"; "compile" ] then
          a +. span_ms s (s.Trace.t1 - s.Trace.t0)
        else a)
      0. spans
  in
  let overhead_pct = 100. *. (((traced_ms -. extra_ms) /. untraced_ms) -. 1.) in
  let n = Array.length spans in
  let child_ns = Array.make n 0 and child_words = Array.make n 0. in
  Array.iter
    (fun (s : Trace.span) ->
      if s.Trace.parent >= 0 then begin
        child_ns.(s.Trace.parent) <- child_ns.(s.Trace.parent) + (s.Trace.t1 - s.Trace.t0);
        child_words.(s.Trace.parent) <-
          child_words.(s.Trace.parent) +. (s.Trace.a1 -. s.Trace.a0)
      end)
    spans;
  let self_ms = Hashtbl.create 16 and calls = Hashtbl.create 16 and words = Hashtbl.create 16 in
  let add t k v = Hashtbl.replace t k (v +. Option.value (Hashtbl.find_opt t k) ~default:0.) in
  let worst = ref 0. and uncovered = ref 0 in
  Array.iteri
    (fun i (s : Trace.span) ->
      let dur = s.Trace.t1 - s.Trace.t0 in
      let self = dur - child_ns.(i) in
      if s.Trace.name = "op" then begin
        let share = 100. *. float_of_int self /. float_of_int (max 1 dur) in
        if share > !worst then worst := share;
        if share > 5. then incr uncovered
      end
      else begin
        add self_ms s.Trace.name (span_ms s self);
        add calls s.Trace.name 1.;
        add words s.Trace.name (s.Trace.a1 -. s.Trace.a0 -. child_words.(i))
      end)
    spans;
  let per_pass v = v /. float_of_int passes in
  let get t k = Option.value (Hashtbl.find_opt t k) ~default:0. in
  let mb w = w *. float_of_int (Sys.word_size / 8) /. 1048576. in
  let metrics =
    List.concat_map
      (fun l ->
        [
          (l ^ ".self_ms", per_pass (get self_ms l), "ms");
          (l ^ ".calls", per_pass (get calls l), "count");
          (l ^ ".alloc_mb", per_pass (mb (get words l)), "MB");
        ])
      layers
    @ List.map
        (fun c ->
          ( c,
            per_pass (float_of_int (Option.value (Hashtbl.find_opt Trace.counters c) ~default:0)),
            if c = "export.bytes" then "B" else "count" ))
        counters
    @ [
        ("gc.major_collections", per_pass (float_of_int major), "count");
        ("trace.overhead_pct", overhead_pct, "%");
        ("host.kernel_ms", kernel_ms, "ms");
        ("trace.unattributed_max_pct", !worst, "%");
        ("trace.ops_uncovered", float_of_int !uncovered, "count");
      ]
  in
  (* the table, for people *)
  let total = List.fold_left (fun a l -> a +. get self_ms l) 0. layers in
  Printf.eprintf "%-10s %10s %7s %9s %6s\n" "layer" "self ms" "calls" "alloc MB" "share";
  List.iter
    (fun l ->
      Printf.eprintf "%-10s %10.2f %7.0f %9.2f %5.1f%%\n" l
        (per_pass (get self_ms l))
        (per_pass (get calls l))
        (per_pass (mb (get words l)))
        (100. *. get self_ms l /. Float.max 1e-9 total))
    layers;
  Printf.eprintf
    "layers cover every op's wall time to within %.2f%% (%d ops over 5%%); tracing \
     overhead %.1f%%\n%!"
    !worst !uncovered overhead_pct;
  (try
     if not (Sys.file_exists ".bench_out") then Sys.mkdir ".bench_out" 0o755;
     Out_channel.with_open_bin
       (Printf.sprintf ".bench_out/spans-%s-%d.tsv" workload seed)
       (fun oc ->
         output_string oc "id\tparent\top\tname\tstart_ns\tend_ns\talloc_words\n";
         Array.iter
           (fun (s : Trace.span) ->
             Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\t%.0f\n" s.Trace.id s.Trace.parent
               s.Trace.op s.Trace.name s.Trace.t0 s.Trace.t1 (s.Trace.a1 -. s.Trace.a0))
           spans)
   with Sys_error e -> Printf.eprintf "spans not written: %s\n%!" e);
  metrics

(* ---- modes ---- *)

(* The warm-up runs each operation, checked, in a forked child of the
   compacted benchmark process: every command then starts from the same
   heap, so the child's peak heap is the command's own, independent of
   the commands before it (in-process, what a compaction leaves behind
   depends on them).  Returns the largest peak, in MB. *)
let warm_up ops =
  List.fold_left
    (fun peak (op : Workloads.op) ->
      Buffer.clear Ops.out;
      Gc.compact ();
      flush_all ();
      let rd, wr = Unix.pipe ~cloexec:true () in
      match Unix.fork () with
      | 0 ->
          Unix.close rd;
          let verdict =
            match op.Workloads.run () with
            | checker -> ( try checker () with e -> Error (Printexc.to_string e))
            | exception e -> Error (Printexc.to_string e)
          in
          let words = (Gc.quick_stat ()).Gc.top_heap_words in
          let oc = Unix.out_channel_of_descr wr in
          Marshal.to_channel oc ((words : int), (verdict : (unit, string) result)) [];
          close_out oc;
          Unix._exit 0
      | pid -> (
          Unix.close wr;
          let ic = Unix.in_channel_of_descr rd in
          let got = try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None in
          close_in ic;
          ignore (Unix.waitpid [] pid);
          match got with
          | Some (words, Ok ()) ->
              Float.max peak (float_of_int (words * (Sys.word_size / 8)) /. 1048576.)
          | Some (_, Error msg) ->
              Printf.eprintf "FAILED (warm-up) %s: %s\n%!" op.Workloads.label msg;
              peak
          | None ->
              Printf.eprintf "FAILED (warm-up) %s: process died\n%!" op.Workloads.label;
              peak))
    0. ops

let measure ~workload ~seed ~seconds ~trace =
  (* set-up: inputs and references, then the warm-up pass; timed at
     the reference host speed, by the kernel before and after it *)
  let setups =
    List.init 5 (fun _ ->
        let k0 = kernel_ns () in
        let t0 = Trace.now () in
        let ops = setup workload seed in
        let peak_mb = warm_up ops in
        let ns = Trace.now () - t0 in
        (ops, ref_ms ~kernel:((k0 + kernel_ns ()) / 2) ns /. 1e3, peak_mb))
  in
  let ops, _, _ = List.hd setups in
  let setup_s = median (List.map (fun (_, s, _) -> s) setups) in
  let peak_heap_mb = median (List.map (fun (_, _, m) -> m) setups) in
  (* at least 100 operations, so that ten lie beyond p90 *)
  let min_passes = max 4 ((100 + List.length ops - 1) / List.length ops) in
  let passes =
    max min_passes
      (int_of_float (Float.round (float_of_int seconds *. 1000. /. pass_ms workload)))
  in
  (* a host more than 1.5 times slower than [pass_ms] stops the run
     early, after a whole pass (in --trace 1, a whole pair of passes),
     so the run still fits its time *)
  let deadline = Trace.now () + int_of_float (1.5e9 *. float_of_int seconds) in
  let more p = p < min_passes || Trace.now () < deadline in
  let tally = { attempted = 0; failed = 0; samples = [] } in
  if not trace then begin
    let p = ref 0 in
    while !p < passes && more !p do
      run_passes tally ~seed ~first:!p ~count:1 ops;
      incr p
    done;
    print_result ~correct:(tally.failed = 0) ~attempted:tally.attempted ~failed:tally.failed
      (end_to_end tally ~setup_s ~peak_heap_mb)
  end
  else begin
    (* traced and untraced passes alternate, so host drift hits both *)
    let traced = { attempted = 0; failed = 0; samples = [] } in
    Trace.reset ();
    majors := 0;
    let p = ref 0 in
    while !p < 2 * ((passes + 1) / 2) && (!p mod 2 = 1 || more !p) do
      Trace.on := !p mod 2 = 1;
      run_passes (if !Trace.on then traced else tally) ~seed ~first:!p ~count:1 ops;
      incr p
    done;
    Trace.on := false;
    let half = !p / 2 in
    let total t = List.fold_left (fun a s -> a +. ref_ms ~kernel:s.kernel s.ns) 0. t.samples in
    let kernel_ms =
      median (List.map (fun s -> float_of_int s.kernel /. 1e6) (tally.samples @ traced.samples))
    in
    let failed = tally.failed + traced.failed in
    print_result ~correct:(failed = 0)
      ~attempted:(tally.attempted + traced.attempted)
      ~failed
      (per_layer ~workload ~seed ~passes:half ~untraced_ms:(total tally)
         ~traced_ms:(total traced) ~kernel_ms ~major:!majors)
  end

(* every workload with one corrupted expected answer: each must finish,
   count the corrupted operations as failed, and pass the rest *)
let selftest () =
  let ok =
    List.for_all
      (fun w ->
        let tally = { attempted = 0; failed = 0; samples = [] } in
        let ops = setup ~corrupt:true w 1 in
        run_passes tally ~seed:1 ~first:0 ~count:1 ops;
        let expect = if w = "sim-stimulus" then 1 else 2 in
        Printf.printf "selftest %s: %d attempted, %d failed (want %d)\n%!" w tally.attempted
          tally.failed expect;
        tally.failed = expect)
      workloads
  in
  print_endline (if ok then "selftest ok" else "selftest FAILED");
  if ok then 0 else 1

let usage () =
  prerr_endline
    "usage: zbench.exe --workload {design-check|sim-stimulus|sim-violations} --seed N \
     --seconds S --trace 0|1\n       zbench.exe --selftest | --gen-expected";
  2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | ("--workload" | "--seed" | "--seconds" | "--trace") as k :: v :: rest ->
        parse ((k, v) :: acc) rest
    | ("--selftest" | "--gen-expected") as k :: rest -> parse ((k, "") :: acc) rest
    | [] -> Some acc
    | _ -> None
  in
  let code =
    match parse [] args with
    | None -> usage ()
    | Some kv -> (
        let get k = List.assoc_opt k kv in
        let int k = Option.bind (get k) int_of_string_opt in
        try
          if get "--gen-expected" <> None then begin
            print_string (Workloads.generate_expectations ());
            0
          end
          else if get "--selftest" <> None then selftest ()
          else
            match (get "--workload", int "--seed", int "--seconds", int "--trace") with
            | Some w, Some seed, Some seconds, Some t
              when List.mem w workloads && seconds > 0 && (t = 0 || t = 1) ->
                measure ~workload:w ~seed ~seconds ~trace:(t = 1);
                0
            | _ -> usage ()
        with Sys_error e | Failure e ->
          Printf.eprintf "zbench: %s\n%!" e;
          2)
  in
  exit code
