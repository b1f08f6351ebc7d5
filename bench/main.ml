(* The benchmark harness: regenerates every table and figure of the Zeus
   report's worked examples (the "evaluation" of a 1983 language report),
   then times the performance-shaped claims with Bechamel.

   Experiment index (see DESIGN.md / EXPERIMENTS.md):
     E1  adders             Fig 3.2.2 + section 10 "Adders"
     E2  blackjack          section 10 FSM state trace
     E3  htree              section 10, linear layout area
     E4  patternmatch       section 10 + the computation-sequence table
     E5  evalseq            section 8 "A possible evaluation sequence"
     E6  routing            section 4.2 HISDL routing network
     E7  typerules          section 4.7 type rule tables (1), (2), (3)
     E8  simcmp             firing vs fixpoint vs relaxation scheduling
     E9  runtime-checks     the NP-completeness-motivated runtime check
     E13 incremental        cross-cycle incremental engine vs firing
     E14 modular            modular summary analysis vs elaborate+lint
     E16 opt                proof-carrying reduction vs plain simulation
     E17 compiled           compiled bytecode engine vs incremental
     E18 batch              batch engine (whole-run sharding + lane
                            packing), runs/second vs serial incremental
     E19 prove              bounded sequential prover: proof cost and
                            the compiled engine with conflict checks
                            discharged

   `dune exec bench/main.exe` prints all report tables and then runs the
   timing benchmarks (pass --no-timing to skip them).  E13 also writes
   machine-readable results to BENCH_sim.json, E14 to BENCH_modular.json,
   E16 to BENCH_opt.json, E17 to BENCH_compiled.json, E18 to
   BENCH_batch.json and E19 to BENCH_prove.json.  Pass --smoke to run
   only the (shortened) simulator, modular, reduction, compiled, batch
   and prove benches and the JSON dumps — the CI mode; --batch-smoke runs
   E18 alone at 2 domains (the CI batch artifact job). *)

open Zeus

let section id title =
  Fmt.pr "@.=== %s: %s ===@." id title

let compile src =
  match Zeus.compile src with
  | Ok d -> d
  | Error diags ->
      Fmt.epr "bench compile error: %a@." Fmt.(list Diag.pp) diags;
      exit 1

(* ------------------------------------------------------------------ *)
(* E1: adders                                                           *)
(* ------------------------------------------------------------------ *)

let e1_adders () =
  section "E1" "full adder truth table and rippleCarry(n) sweep";
  let d = compile Corpus.adder4 in
  let sim = Sim.create d in
  Fmt.pr "fulladder via rippleCarry(4), bit 1 (Fig 3.2.2):@.";
  Fmt.pr "  a b cin | cout s@.";
  List.iter
    (fun (a, b, c) ->
      Sim.poke_int_lsb sim "adder.a" a;
      Sim.poke_int_lsb sim "adder.b" b;
      Sim.poke_bool sim "adder.cin" (c = 1);
      Sim.step sim;
      let s = Sim.peek sim "adder.s[1]" in
      let h = Sim.peek sim "adder.h[2]" in
      Fmt.pr "  %d %d  %d  |  %a    %a@." a b c
        Fmt.(list ~sep:nop Logic.pp) h
        Fmt.(list ~sep:nop Logic.pp) s)
    [ (0,0,0); (0,0,1); (0,1,0); (0,1,1); (1,0,0); (1,0,1); (1,1,0); (1,1,1) ];
  Fmt.pr "rippleCarry(n) correctness sweep (1000 random adds each):@.";
  Fmt.pr "  %6s %8s %8s %8s %8s@." "n" "nets" "gates" "checks" "mismatch";
  let rng = Random.State.make [| 42 |] in
  List.iter
    (fun n ->
      let d = compile (Corpus.adder_n n) in
      let sim = Sim.create d in
      let mism = ref 0 in
      let mask = (1 lsl min n 30) - 1 in
      for _ = 1 to 1000 do
        let a = Random.State.bits rng land mask
        and b = Random.State.bits rng land mask in
        Sim.poke_int_lsb sim "adder.a" a;
        Sim.poke_int_lsb sim "adder.b" b;
        Sim.poke_bool sim "adder.cin" false;
        Sim.step sim;
        let want = (a + b) land ((1 lsl n) - 1) in
        if n <= 30 && Sim.peek_int_lsb sim "adder.s" <> Some want then incr mism
      done;
      let nl = d.Elaborate.netlist in
      Fmt.pr "  %6d %8d %8d %8d %8d@." n (Netlist.net_count nl)
        (List.length (Netlist.gates nl))
        1000 !mism)
    [ 4; 8; 16; 24; 30 ]

(* ------------------------------------------------------------------ *)
(* E2: blackjack                                                        *)
(* ------------------------------------------------------------------ *)

let e2_blackjack () =
  section "E2" "Blackjack FSM state trace (section 10)";
  let d = compile Corpus.blackjack in
  let sim = Sim.create d in
  Sim.poke_bool sim "bj.ycard" false;
  Sim.poke_int sim "bj.value" 0;
  Sim.reset sim;
  let state_name = function
    | Some 0 -> "start" | Some 1 -> "read" | Some 2 -> "sum"
    | Some 3 -> "firstace" | Some 4 -> "test" | Some 5 -> "end"
    | _ -> "?" in
  let cards = ref [ 10; 9 ] in
  Fmt.pr "hand 10,9 (expect: stand at 19):@.";
  Fmt.pr "  %5s %-9s %5s %4s %5s %5s@." "cycle" "state" "score" "hit" "stand" "broke";
  let dealt = ref false in
  for cyc = 1 to 14 do
    let st = Sim.peek_int sim "bj.state.out" in
    if st <> Some 1 then dealt := false;
    (match (st, !cards) with
    | Some 1, c :: rest when not !dealt ->
        Sim.poke_int sim "bj.value" c;
        Sim.poke_bool sim "bj.ycard" true;
        cards := rest;
        dealt := true
    | _ -> Sim.poke_bool sim "bj.ycard" false);
    Sim.step sim;
    Fmt.pr "  %5d %-9s %5s %4s %5s %5s@." cyc
      (state_name (Sim.peek_int sim "bj.state.out"))
      (match Sim.peek_int sim "bj.score.out" with
      | Some s -> string_of_int s
      | None -> "-")
      (Logic.to_string (Sim.peek_bit sim "bj.hit"))
      (Logic.to_string (Sim.peek_bit sim "bj.stand"))
      (Logic.to_string (Sim.peek_bit sim "bj.broke"))
  done;
  Fmt.pr "runtime errors: %d@." (List.length (Sim.runtime_errors sim))

(* ------------------------------------------------------------------ *)
(* E3: H-tree area                                                      *)
(* ------------------------------------------------------------------ *)

let e3_htree () =
  section "E3" "H-tree layout area is linear in the number of leaves";
  Fmt.pr "  %8s %8s %8s %8s %10s@." "n" "width" "height" "area" "area/n";
  List.iter
    (fun n ->
      let d = compile (Corpus.htree n) in
      match Floorplan.of_design d "a" with
      | Some plan ->
          let a = Floorplan.area plan in
          Fmt.pr "  %8d %8d %8d %8d %10.2f@." n plan.Floorplan.width
            plan.Floorplan.height a
            (float_of_int a /. float_of_int n)
      | None -> Fmt.pr "  %8d (no plan)@." n)
    [ 1; 4; 16; 64; 256; 1024; 4096 ]

(* ------------------------------------------------------------------ *)
(* E4: pattern matching                                                 *)
(* ------------------------------------------------------------------ *)

let e4_patternmatch () =
  section "E4" "systolic pattern matcher computation sequence (section 10)";
  let d = compile (Corpus.patternmatch 3) in
  let sim = Sim.create d in
  List.iter (fun p -> Sim.poke_bool sim p false)
    [ "match.pattern"; "match.string"; "match.endofpattern"; "match.wild";
      "match.resultin" ];
  Sim.reset sim;
  let pattern = [ 1; 0 ] and text = [ 1; 0; 1; 0; 1; 0; 1; 0 ] in
  let plen = List.length pattern in
  Fmt.pr "pattern 10 (recirculating), text 10101010, one item every second \
          cycle:@.";
  Fmt.pr "  %5s %3s %3s %3s %6s@." "cycle" "pat" "eop" "str" "result";
  for cyc = 0 to 35 do
    let idle = cyc mod 2 = 1 in
    let p, e, s =
      if idle then (false, false, false)
      else begin
        let i = cyc / 2 in
        let pi = i mod (plen + 1) in
        ( pi < plen && List.nth pattern pi = 1,
          pi = plen,
          match List.nth_opt text i with Some 1 -> true | _ -> false )
      end
    in
    Sim.poke_bool sim "match.pattern" p;
    Sim.poke_bool sim "match.endofpattern" e;
    Sim.poke_bool sim "match.string" s;
    Sim.step sim;
    let r = Sim.peek_bit sim "match.result" in
    Fmt.pr "  %5d %3d %3d %3d %6s%s@." cyc (Bool.to_int p) (Bool.to_int e)
      (Bool.to_int s) (Logic.to_string r)
      (if Logic.equal r Logic.One then "  <- match" else "")
  done;
  Fmt.pr "runtime errors: %d@." (List.length (Sim.runtime_errors sim))

(* ------------------------------------------------------------------ *)
(* E5: evaluation sequence (section 8)                                  *)
(* ------------------------------------------------------------------ *)

let e5_evalseq () =
  section "E5" "a possible evaluation sequence (section 8 example)";
  let d = compile Corpus.section8_example in
  let sim = Sim.create d in
  Sim.set_trace sim true;
  List.iter
    (fun (p, v) -> Sim.poke_bool sim p v)
    [ ("top.a", true); ("top.b", true); ("top.cc", false); ("top.x", true);
      ("top.y", false); ("top.rin", true) ];
  Sim.step sim;
  Fmt.pr "firing order (signal(value), cf. the report's \
          \"2(0),rout(0),rin(1),...\"):@.  ";
  List.iter
    (fun (n, v) -> Fmt.pr "%s(%a) " n Logic.pp v)
    (List.filter
       (fun (n, _) -> not (String.contains n '#'))
       (Sim.trace_last_cycle sim));
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* E6: routing network                                                  *)
(* ------------------------------------------------------------------ *)

let e6_routing () =
  section "E6" "recursive HISDL routing network (section 4.2)";
  Fmt.pr "  %6s %9s %9s %8s %8s@." "n" "routers" "expected" "nets" "drivers";
  List.iter
    (fun n ->
      let d = compile (Corpus.routing_network n) in
      let nl = d.Elaborate.netlist in
      let routers =
        List.length
          (List.filter
             (fun (i : Netlist.instance) -> i.Netlist.itype = "router")
             (Netlist.instances nl))
      in
      let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
      Fmt.pr "  %6d %9d %9d %8d %8d@." n routers (n / 2 * log2 n)
        (Netlist.net_count nl)
        (List.length (Netlist.drivers nl)))
    [ 2; 4; 8; 16; 32; 64 ];
  (* permutation property: all-swap headers reverse the butterfly *)
  let d = compile (Corpus.routing_network 8) in
  let sim = Sim.create d in
  for i = 0 to 7 do
    Sim.poke_int sim (Printf.sprintf "net.input[%d]" i) (512 + i)
  done;
  Sim.step sim;
  Fmt.pr "all-swap routing of 512+i headers: ";
  for i = 0 to 7 do
    Fmt.pr "%s "
      (match Sim.peek_int sim (Printf.sprintf "net.output[%d]" i) with
      | Some v -> string_of_int (v - 512)
      | None -> "?")
  done;
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* E7: the static type rule tables                                      *)
(* ------------------------------------------------------------------ *)

let e7_typerules () =
  section "E7" "type rules (1) and (2) of section 4.7, as decided by the checker";
  let verdict src =
    let _, diags = Zeus.elaborate_with_diags src in
    if List.exists (fun (d : Diag.t) -> d.Diag.severity = Diag.Error) diags
    then "illegal"
    else "legal"
  in
  let cond target source =
    Printf.sprintf
      "TYPE t = COMPONENT (IN b: boolean; IN eb: boolean; em: multiplex; \
       OUT y: boolean) IS SIGNAL x: %s; BEGIN IF b THEN x := %s END; y := \
       x END; SIGNAL s: t;"
      target
      (if source = "boolean" then "eb" else "em")
  in
  Fmt.pr "type rules (1): IF b THEN x := e END (x a local signal)@.";
  Fmt.pr "  %-10s| %-10s %-10s@." "x \\ e" "boolean" "multiplex";
  List.iter
    (fun t ->
      Fmt.pr "  %-10s| %-10s %-10s@." t
        (verdict (cond t "boolean"))
        (verdict (cond t "multiplex")))
    [ "boolean"; "multiplex" ];
  Fmt.pr "exception 1 (boolean formal OUT / instance IN): %s@."
    (verdict
       "TYPE t = COMPONENT (IN b,c: boolean; OUT y: boolean) IS BEGIN IF b \
        THEN y := c END END; SIGNAL s: t;");
  Fmt.pr "@.type rules (2): x == y@.";
  let alias l r =
    match (l, r) with
    | "boolean", "boolean" ->
        "TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS SIGNAL u,v: \
         boolean; BEGIN u := a; u == v; y := v END; SIGNAL s: t;"
    | "boolean", "multiplex" | "multiplex", "boolean" ->
        "TYPE t = COMPONENT (em: multiplex; IN a: boolean; OUT y: boolean) \
         IS SIGNAL u: boolean; BEGIN u == em; y := u END; SIGNAL s: t;"
    | _ ->
        "TYPE t = COMPONENT (em,fm: multiplex; IN a: boolean) IS BEGIN em \
         == fm; IF a THEN em := 1 END END; SIGNAL s: t;"
  in
  Fmt.pr "  %-10s| %-10s %-10s@." "x \\ y" "boolean" "multiplex";
  List.iter
    (fun l ->
      Fmt.pr "  %-10s| %-10s %-10s@." l
        (verdict (alias l "boolean"))
        (verdict (alias l "multiplex")))
    [ "boolean"; "multiplex" ];
  Fmt.pr "exception 1 (OUT formal aliased to multiplex): %s@."
    (verdict
       "TYPE t = COMPONENT (em: multiplex; IN a: boolean; OUT y: boolean) \
        IS BEGIN y == em; IF a THEN em := 1 END END; SIGNAL s: t;")

(* ------------------------------------------------------------------ *)
(* E8: simulator scheduling comparison                                  *)
(* ------------------------------------------------------------------ *)

let visits_of engine d pokes =
  let sim = Sim.create ~engine d in
  List.iter (fun (p, v) -> Sim.poke_int_lsb sim p v) pokes;
  Sim.step sim;
  Sim.node_visits sim

let e8_simcmp () =
  section "E8"
    "node visits per cycle: firing (section 8) vs strict-firing ablation \
     vs sweep-to-fixpoint vs relaxation";
  Fmt.pr "  %-18s %8s %6s %9s %8s %10s %12s@." "design" "nodes" "depth"
    "firing" "strict" "fixpoint" "relaxation";
  List.iter
    (fun (name, src, pokes) ->
      let d = compile src in
      let nodes =
        List.length (Netlist.gates d.Elaborate.netlist)
        + List.length (Netlist.drivers d.Elaborate.netlist)
      in
      let depth = (Stats.of_design d).Stats.depth in
      let f = visits_of Sim.Firing d pokes
      and fs = visits_of Sim.Firing_strict d pokes
      and fx = visits_of Sim.Fixpoint d pokes
      and rx = visits_of Sim.Relaxation d pokes in
      Fmt.pr "  %-18s %8d %6d %9d %8d %10d %12d@." name nodes depth f fs fx rx)
    [
      ("rippleCarry(8)", Corpus.adder_n 8, [ ("adder.a", 255); ("adder.b", 1) ]);
      ("rippleCarry(32)", Corpus.adder_n 32,
       [ ("adder.a", 0xFFFFFFF); ("adder.b", 1) ]);
      ("rippleCarry(64)", Corpus.adder_n 64,
       [ ("adder.a", 0xFFFFFFF); ("adder.b", 1) ]);
      ("patternmatch(9)", Corpus.patternmatch 9, []);
      ("blackjack", Corpus.blackjack, []);
      ("routing(16)", Corpus.routing_network 16, []);
      ("am2901", Corpus.am2901, []);
      ("stack(16x8)", Corpus.stack ~depth:16 ~width:8, []);
      ("dictionary(16x8)", Corpus.dictionary ~slots:16 ~keybits:8, []);
    ];
  Fmt.pr "(the firing evaluator visits each node O(1) times; the sweeping \
          baselines pay one full sweep per logic level)@."

(* ------------------------------------------------------------------ *)
(* E9: runtime checks                                                   *)
(* ------------------------------------------------------------------ *)

let e9_runtime_checks () =
  section "E9"
    "runtime multiple-assignment checks (statically undecidable, section \
     4.7)";
  (* a mux driven under two input-dependent guards: only the runtime can
     tell whether both fire *)
  let d =
    compile
      "TYPE t = COMPONENT (IN b,c,x,y: boolean; m: multiplex) IS BEGIN IF b \
       THEN m := x END; IF c THEN m := y END END; SIGNAL s: t;"
  in
  let sim = Sim.create d in
  Fmt.pr "  %3s %3s | %5s %9s@." "b" "c" "m" "conflict";
  List.iter
    (fun (b, c) ->
      let before = List.length (Sim.runtime_errors sim) in
      Sim.poke_bool sim "s.b" (b = 1);
      Sim.poke_bool sim "s.c" (c = 1);
      Sim.poke_bool sim "s.x" true;
      Sim.poke_bool sim "s.y" false;
      Sim.step sim;
      let after = List.length (Sim.runtime_errors sim) in
      Fmt.pr "  %3d %3d | %5s %9s@." b c
        (Logic.to_string (Sim.peek_bit sim "s.m"))
        (if after > before then "DETECTED" else "-"))
    [ (0, 0); (0, 1); (1, 0); (1, 1) ];
  (* detection rate over random guard workloads *)
  let rng = Random.State.make [| 7 |] in
  let injected = ref 0 and detected = ref 0 in
  for _ = 1 to 1000 do
    let b = Random.State.bool rng and c = Random.State.bool rng in
    let before = List.length (Sim.runtime_errors sim) in
    Sim.poke_bool sim "s.b" b;
    Sim.poke_bool sim "s.c" c;
    Sim.step sim;
    let after = List.length (Sim.runtime_errors sim) in
    if b && c then incr injected;
    if after > before then incr detected
  done;
  Fmt.pr "random workload: %d double-drives injected, %d detected@."
    !injected !detected

(* ------------------------------------------------------------------ *)
(* E10: ablation — lazy vs eager instantiation (section 4.2)            *)
(* ------------------------------------------------------------------ *)

let e10_lazy_ablation () =
  section "E10"
    "ablation: lazy instantiation (\"hardware only generated if used\") vs \
     eager";
  let elaborate ~eager src =
    let bag = Diag.Bag.create () in
    match Parser.program ~bag src with
    | None, _ -> Error "parse"
    | Some prog, _ ->
        let d = Elaborate.program ~bag ~eager prog in
        if Diag.Bag.has_errors bag then
          Error
            (match Diag.Bag.errors bag with
            | e :: _ -> e.Diag.message
            | [] -> "?")
        else Ok (List.length (Netlist.instances d.Elaborate.netlist))
  in
  Fmt.pr "  %-16s %14s %s@." "design" "lazy" "eager";
  List.iter
    (fun (name, src) ->
      let show = function
        | Ok n -> Fmt.str "%d instances" n
        | Error e ->
            let e =
              if String.length e > 48 then String.sub e 0 48 ^ "..." else e
            in
            "DIVERGES: " ^ e
      in
      Fmt.pr "  %-16s %14s %s@." name
        (show (elaborate ~eager:false src))
        (show (elaborate ~eager:true src)))
    [
      ("routing(8)", Corpus.routing_network 8);
      ("htree(16)", Corpus.htree 16);
      ("tree(8)", Corpus.tree_recursive 8);
      ("adder(8)", Corpus.adder_n 8);
    ]

(* ------------------------------------------------------------------ *)
(* E11: explicit layout vs automatic placement (the silicon-compiler    *)
(* application of section 9)                                            *)
(* ------------------------------------------------------------------ *)

let e11_autoplace () =
  section "E11"
    "designer layout (section 6) vs automatic dataflow placement: \
     estimated wirelength";
  Fmt.pr "  %-18s %10s %12s %10s %12s@." "design" "cells" "explicit-wl"
    "auto-wl" "auto-shape";
  List.iter
    (fun (name, src, top) ->
      let d = compile src in
      let explicit = Floorplan.of_design d top in
      let auto = Autoplace.place d top in
      match (explicit, auto) with
      | Some e, Some a ->
          Fmt.pr "  %-18s %10d %12d %10d %9dx%d@." name
            (List.length a.Floorplan.cells)
            (Autoplace.wirelength d e)
            (Autoplace.wirelength d a)
            a.Floorplan.width a.Floorplan.height
      | _ -> Fmt.pr "  %-18s (no plan)@." name)
    [
      ("rippleCarry(8)", Corpus.adder_n 8, "adder");
      ("rippleCarry(32)", Corpus.adder_n 32, "adder");
      ("patternmatch(9)", Corpus.patternmatch 9, "match");
      ("stack(8x4)", Corpus.stack ~depth:8 ~width:4, "st");
    ]

(* ------------------------------------------------------------------ *)
(* A1: the abstract's remaining example classes                         *)
(* ------------------------------------------------------------------ *)

let a1_machines () =
  section "A1"
    "AM2901 / systolic stack / dictionary machine vs golden models";
  (* AM2901: random instruction streams against the reference model *)
  let d = compile Corpus.am2901 in
  let sim = Sim.create d in
  let model = Refmodel.Am2901.create () in
  let agree = ref 0 and total = 500 in
  (* initialise the register file through the datapath *)
  for reg = 0 to 15 do
    Sim.poke_int sim "alu.i" 0o703;
    Sim.poke_int sim "alu.a" 0;
    Sim.poke_int sim "alu.b" reg;
    Sim.poke_int sim "alu.d" 0;
    Sim.poke_bool sim "alu.cin" false;
    Sim.step sim;
    ignore (Refmodel.Am2901.step model ~i:0o703 ~a:0 ~b:reg ~d:0 ~cin:false)
  done;
  Sim.poke_int sim "alu.i" 0o700;
  Sim.step sim;
  ignore (Refmodel.Am2901.step model ~i:0o700 ~a:0 ~b:0 ~d:0 ~cin:false);
  let rng = Random.State.make [| 2901 |] in
  for _ = 1 to total do
    let i = Random.State.int rng 512
    and a = Random.State.int rng 16
    and b = Random.State.int rng 16
    and dd = Random.State.int rng 16
    and cin = Random.State.bool rng in
    Sim.poke_int sim "alu.i" i;
    Sim.poke_int sim "alu.a" a;
    Sim.poke_int sim "alu.b" b;
    Sim.poke_int sim "alu.d" dd;
    Sim.poke_bool sim "alu.cin" cin;
    Sim.step sim;
    let r = Refmodel.Am2901.step model ~i ~a ~b ~d:dd ~cin in
    if Sim.peek_int sim "alu.y" = Some r.Refmodel.Am2901.y then incr agree
  done;
  Fmt.pr "  am2901: %d/%d random instructions agree with the golden model \
          (runtime errors: %d)@."
    !agree total
    (List.length (Sim.runtime_errors sim));
  Fmt.pr "  netlist: %s@." (Netlist.stats d.Elaborate.netlist);
  (* systolic stack: constant-cycle push/pop *)
  Fmt.pr "  stack depth sweep (one cycle per operation at any depth):@.";
  Fmt.pr "    %8s %8s %8s@." "depth" "nets" "regs";
  List.iter
    (fun depth ->
      let d = compile (Corpus.stack ~depth ~width:8) in
      Fmt.pr "    %8d %8d %8d@." depth
        (Netlist.net_count d.Elaborate.netlist)
        (List.length (Netlist.regs d.Elaborate.netlist)))
    [ 4; 8; 16; 32; 64 ];
  (* dictionary *)
  Fmt.pr "  dictionary slots sweep:@.";
  Fmt.pr "    %8s %8s %8s@." "slots" "nets" "gates";
  List.iter
    (fun slots ->
      let d = compile (Corpus.dictionary ~slots ~keybits:8) in
      Fmt.pr "    %8d %8d %8d@." slots
        (Netlist.net_count d.Elaborate.netlist)
        (List.length (Netlist.gates d.Elaborate.netlist)))
    [ 4; 8; 16; 32 ];
  (* systolic priority queue: constant-cycle insert/extract-min *)
  let d = compile (Corpus.priority_queue ~slots:8 ~width:4) in
  let sim = Sim.create d in
  Sim.poke_bool sim "pq.ins" false;
  Sim.poke_bool sim "pq.ext" false;
  Sim.poke_int sim "pq.din" 0;
  let mins = ref [] in
  List.iter
    (fun op ->
      (match op with
      | `I v ->
          Sim.poke_bool sim "pq.ins" true;
          Sim.poke_bool sim "pq.ext" false;
          Sim.poke_int sim "pq.din" v
      | `E ->
          Sim.poke_bool sim "pq.ins" false;
          Sim.poke_bool sim "pq.ext" true);
      Sim.step sim;
      Sim.poke_bool sim "pq.ins" false;
      Sim.poke_bool sim "pq.ext" false;
      Sim.step sim;
      mins := Sim.peek_int sim "pq.minout" :: !mins)
    [ `I 9; `I 3; `I 11; `E; `E; `E ];
  Fmt.pr "  pqueue(8x4): insert 9,3,11 then extract x3 -> min trace %a \
          (runtime errors: %d)@."
    Fmt.(list ~sep:sp (option ~none:(any "?") int))
    (List.rev !mins)
    (List.length (Sim.runtime_errors sim));
  (* odd-even transposition sorter (Thompson-style, section 9's
     invitation): sort a vector and count the cycles *)
  let n = 8 in
  let d = compile (Corpus.sorter ~n ~w:4) in
  let sim = Sim.create d in
  Sim.poke_bool sim "srt.load" false;
  let values = [ 7; 3; 15; 0; 9; 9; 1; 4 ] in
  List.iteri
    (fun i v -> Sim.poke_int sim (Printf.sprintf "srt.din[%d]" (i + 1)) v)
    values;
  Sim.reset sim;
  Sim.poke_bool sim "srt.load" true;
  Sim.step sim;
  Sim.poke_bool sim "srt.load" false;
  Sim.step_n sim (n + 1);
  Fmt.pr "  sorter(8x4): %a -> %a in %d cycles (runtime errors: %d)@."
    Fmt.(list ~sep:sp int)
    values
    Fmt.(list ~sep:sp (option ~none:(any "?") int))
    (List.init n (fun i ->
         Sim.peek_int sim (Printf.sprintf "srt.dout[%d]" (i + 1))))
    (n + 1)
    (List.length (Sim.runtime_errors sim))

(* ------------------------------------------------------------------ *)
(* E13: the cross-cycle incremental engine                              *)
(* ------------------------------------------------------------------ *)

type e13_row = {
  r_design : string;
  r_cycles : int;
  r_firing_visits : int;
  r_firing_secs : float;
  r_incr_visits : int;
  r_incr_secs : float;
  r_quiescent_visits : int; (* total over 10 stimulus-free cycles *)
  r_agree : bool; (* snapshots identical after the workload *)
}

(* Low-activity workloads: a handful of input bits change per cycle
   while the bulk of the design is quiet — the regime the cross-cycle
   incremental engine exists for.  Each workload is
   (name, source, warm-up pokes, per-cycle stimulus). *)
let e13_workloads =
  [
    ( "routing(128)/1-header",
      Corpus.routing_network 128,
      (fun sim ->
        for i = 0 to 127 do
          Sim.poke_int sim (Printf.sprintf "net.input[%d]" i) i
        done),
      fun sim c -> Sim.poke_int sim "net.input[0]" (c land 1) );
    ( "ram(256x16)/1-bit-write",
      Corpus.ram ~abits:8 ~wbits:16,
      (fun sim ->
        Sim.poke_int sim "m.addr" 42;
        Sim.poke_int sim "m.data" 0;
        Sim.poke_bool sim "m.we" true),
      fun sim c -> Sim.poke_int sim "m.data" (c land 1) );
    ( "adder(64)/cin-toggle",
      Corpus.adder_n 64,
      (fun sim ->
        Sim.poke_int_lsb sim "adder.a" 0;
        Sim.poke_int_lsb sim "adder.b" 0;
        Sim.poke_bool sim "adder.cin" false),
      fun sim c -> Sim.poke_bool sim "adder.cin" (c land 1 = 1) );
  ]

let e13_write_json rows path =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"experiments\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"design\": %S, \"cycles\": %d,\n\
           \     \"firing\": {\"node_visits\": %d, \"seconds\": %.6f},\n\
           \     \"incremental\": {\"node_visits\": %d, \"seconds\": %.6f},\n\
           \     \"visit_ratio\": %.2f, \"quiescent_visits_per_cycle\": %d,\n\
           \     \"snapshots_agree\": %b}"
           r.r_design r.r_cycles r.r_firing_visits r.r_firing_secs
           r.r_incr_visits r.r_incr_secs
           (float_of_int r.r_firing_visits
           /. float_of_int (max 1 r.r_incr_visits))
           (r.r_quiescent_visits / 10)
           r.r_agree))
    rows;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "wrote %s@." path

let e13_incremental ~cycles () =
  section "E13"
    "cross-cycle incremental engine: node visits and wall clock vs \
     per-cycle firing (low-activity workloads)";
  let bench (name, src, warm, stim) =
    let d = compile src in
    let run engine =
      let sim = Sim.create ~engine d in
      warm sim;
      Sim.step sim;
      (* cold-start cycle excluded from the counts *)
      let v0 = Sim.node_visits sim in
      let t0 = Sys.time () in
      for c = 1 to cycles do
        stim sim c;
        Sim.step sim
      done;
      (Sim.node_visits sim - v0, Sys.time () -. t0, sim)
    in
    let fv, fs, fsim = run Sim.Firing in
    let iv, is_, isim = run Sim.Incremental in
    let agree = Sim.snapshot fsim = Sim.snapshot isim in
    (* a fully quiescent tail: the incremental engine must do no work *)
    let q0 = Sim.node_visits isim in
    Sim.step_n isim 10;
    let qv = Sim.node_visits isim - q0 in
    { r_design = name; r_cycles = cycles; r_firing_visits = fv;
      r_firing_secs = fs; r_incr_visits = iv; r_incr_secs = is_;
      r_quiescent_visits = qv; r_agree = agree }
  in
  let rows = List.map bench e13_workloads in
  Fmt.pr "  %-24s %6s %10s %9s %10s %9s %7s %6s %6s@." "workload" "cycles"
    "fire-vis" "fire-s" "incr-vis" "incr-s" "ratio" "quiet" "agree";
  List.iter
    (fun r ->
      Fmt.pr "  %-24s %6d %10d %9.4f %10d %9.4f %6.1fx %6d %6s@." r.r_design
        r.r_cycles r.r_firing_visits r.r_firing_secs r.r_incr_visits
        r.r_incr_secs
        (float_of_int r.r_firing_visits
        /. float_of_int (max 1 r.r_incr_visits))
        (r.r_quiescent_visits / 10)
        (if r.r_agree then "yes" else "NO"))
    rows;
  Fmt.pr "(\"quiet\" = incremental node visits per fully quiescent cycle — \
          must be 0)@.";
  e13_write_json rows "BENCH_sim.json"

(* ------------------------------------------------------------------ *)
(* E14: modular summary analysis vs elaborate-then-lint                 *)
(* ------------------------------------------------------------------ *)

type e14_row = {
  m_design : string;
  m_nets : int; (* elaborated design size, for scale *)
  m_mod_secs : float;
  m_summaries : int; (* (type, signature) summaries the modular pass built *)
  m_elab_secs : float;
  m_proven : bool; (* top type proved conflict-safe AND cycle-free *)
}

(* The modular pass is O(types × signatures): the recursive families
   need log N summaries while elaboration builds Θ(N log N) hardware,
   so the modular column should stay near-flat as N grows. *)
let e14_families ~smoke =
  [
    ("routing", Corpus.routing_network, "routingnetwork",
     if smoke then [ 4; 16 ] else [ 4; 8; 16; 32; 64; 128 ]);
    ("htree", Corpus.htree, "htree",
     if smoke then [ 16 ] else [ 4; 16; 64; 256 ]);
  ]

let e14_bench family mk ty n =
  let src = mk n in
  let prog =
    match Parser.program src with
    | Some p, _ -> p
    | None, _ ->
        Fmt.epr "E14: %s(%d) does not parse@." family n;
        exit 1
  in
  (* modular: parse + summaries, no cache, no elaboration; averaged over
     a few repetitions because a single run is near the clock tick *)
  let reps = 5 in
  let t0 = Sys.time () in
  let res = ref None in
  for _ = 1 to reps do
    res := Some (Summary.analyze prog)
  done;
  let mod_secs = (Sys.time () -. t0) /. float_of_int reps in
  let r = Option.get !res in
  (* the elaborated pipeline it replaces: elaborate + check + lint *)
  let t1 = Sys.time () in
  let d = compile src in
  let (_ : Lint.report) = Lint.run d in
  let elab_secs = Sys.time () -. t1 in
  let proven =
    List.mem ty r.Summary.proven_conflict_safe
    && List.mem ty r.Summary.proven_cycle_free
  in
  {
    m_design = Printf.sprintf "%s(%d)" family n;
    m_nets = Netlist.net_count d.Elaborate.netlist;
    m_mod_secs = mod_secs;
    m_summaries = r.Summary.summaries_computed;
    m_elab_secs = elab_secs;
    m_proven = proven;
  }

let e14_write_json rows path =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"experiments\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"design\": %S, \"nets\": %d,\n\
           \     \"modular\": {\"summaries\": %d, \"seconds\": %.6f},\n\
           \     \"elaborate_lint\": {\"seconds\": %.6f},\n\
           \     \"speedup\": %.2f, \"proven\": %b}"
           r.m_design r.m_nets r.m_summaries r.m_mod_secs r.m_elab_secs
           (r.m_elab_secs /. Float.max 1e-9 r.m_mod_secs)
           r.m_proven))
    rows;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "wrote %s@." path

let e14_modular ?(smoke = false) () =
  section "E14"
    "modular summary analysis vs elaborate-then-lint on the recursive \
     families (seconds; modular should stay near-flat in N)";
  let rows =
    List.concat_map
      (fun (family, mk, ty, sizes) ->
        List.map (e14_bench family mk ty) sizes)
      (e14_families ~smoke)
  in
  Fmt.pr "  %-14s %8s %10s %10s %10s %8s %7s@." "design" "nets" "summaries"
    "modular-s" "elab-s" "speedup" "proven";
  List.iter
    (fun r ->
      Fmt.pr "  %-14s %8d %10d %10.4f %10.4f %7.1fx %7s@." r.m_design r.m_nets
        r.m_summaries r.m_mod_secs r.m_elab_secs
        (r.m_elab_secs /. Float.max 1e-9 r.m_mod_secs)
        (if r.m_proven then "yes" else "NO"))
    rows;
  e14_write_json rows "BENCH_modular.json"

(* ------------------------------------------------------------------ *)
(* High-activity workloads (shared by E16)                              *)
(* ------------------------------------------------------------------ *)

(* Most of the design switches every cycle.  Each workload is (name,
   source, warm-up pokes, per-cycle stimulus). *)
let high_activity_workloads =
  [
    ( "routing(128)/all-headers",
      Corpus.routing_network 128,
      (fun sim ->
        for i = 0 to 127 do
          Sim.poke_int sim (Printf.sprintf "net.input[%d]" i) i
        done),
      fun sim c ->
        for i = 0 to 127 do
          Sim.poke_int sim
            (Printf.sprintf "net.input[%d]" i)
            ((i + c) land 1023)
        done );
    ( "htree(256)/root-toggle",
      Corpus.htree 256,
      (fun sim -> Sim.poke_bool sim "a.in" false),
      fun sim c -> Sim.poke_bool sim "a.in" (c land 1 = 1) );
    ( "patternmatch(9)/stream",
      Corpus.patternmatch 9,
      (fun sim ->
        List.iter
          (fun p -> Sim.poke_bool sim ("match." ^ p) false)
          [ "pattern"; "string"; "endofpattern"; "wild"; "resultin" ]),
      fun sim c ->
        Sim.poke_bool sim "match.pattern" (c land 1 = 1);
        Sim.poke_bool sim "match.string" (c land 2 = 2);
        Sim.poke_bool sim "match.endofpattern" (c mod 9 = 0);
        Sim.poke_bool sim "match.wild" (c land 4 = 4);
        Sim.poke_bool sim "match.resultin" (c land 1 = 0) );
  ]

(* ------------------------------------------------------------------ *)
(* E16: the proof-carrying reduction (zeusc opt)                        *)
(* ------------------------------------------------------------------ *)

type e16_row = {
  o_design : string;
  o_cycles : int;
  o_stats : Reduce.stats;
  o_plain_visits : int;
  o_plain_secs : float;
  o_opt_visits : int;
  o_opt_secs : float;
  o_agree : bool; (* observable final snapshot identical through class maps *)
}

let e16_write_json rows path =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"experiments\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      let s = r.o_stats in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"design\": %S, \"cycles\": %d,\n\
           \     \"reduction\": {\"gates_before\": %d, \"gates_after\": %d, \
            \"drivers_before\": %d, \"drivers_after\": %d,\n\
           \                   \"consts_folded\": %d, \"copies_merged\": %d, \
            \"nets_eliminated\": %d},\n\
           \     \"plain\": {\"node_visits\": %d, \"seconds\": %.6f},\n\
           \     \"optimized\": {\"node_visits\": %d, \"seconds\": %.6f, \
            \"speedup\": %.2f, \"snapshots_agree\": %b}}"
           r.o_design r.o_cycles s.Reduce.gates_before s.Reduce.gates_after
           s.Reduce.drivers_before s.Reduce.drivers_after
           s.Reduce.consts_folded s.Reduce.copies_merged
           s.Reduce.nets_eliminated r.o_plain_visits r.o_plain_secs
           r.o_opt_visits r.o_opt_secs
           (r.o_plain_secs /. Float.max 1e-9 r.o_opt_secs)
           r.o_agree))
    rows;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "wrote %s@." path

let e16_opt ~cycles () =
  section "E16"
    "proof-carrying reduction: optimized vs plain simulation (incremental \
     engine, high-activity workloads)";
  let bench (name, src, warm, stim) =
    let d = compile src in
    let r = Reduce.run d in
    let run design =
      let sim = Sim.create ~engine:Sim.Incremental design in
      warm sim;
      Sim.step sim;
      (* cold-start cycle excluded from the counts *)
      let v0 = Sim.node_visits sim in
      let t0 = Unix.gettimeofday () in
      for c = 1 to cycles do
        stim sim c;
        Sim.step sim
      done;
      (Sim.node_visits sim - v0, Unix.gettimeofday () -. t0, sim)
    in
    let pv, ps, psim = run d in
    let ov, os_, osim = run r.Reduce.design in
    (* observable equality through each design's class map: the
       reduction merges copy classes, so only per-net root slots are
       comparable (same check as oracle row O6, on the final state) *)
    let g1 = Graph.build d and g2 = Graph.build r.Reduce.design in
    let s1 = Sim.snapshot psim and s2 = Sim.snapshot osim in
    let ai = r.Reduce.ai in
    let agree = ref true in
    Array.iter
      (fun root ->
        if Absint.observable_net ai root then begin
          let slot2 = g2.Graph.rep.(g2.Graph.canon.(root)) in
          if s1.(root) <> s2.(slot2) then agree := false
        end)
      g1.Graph.rep;
    {
      o_design = name;
      o_cycles = cycles;
      o_stats = r.Reduce.stats;
      o_plain_visits = pv;
      o_plain_secs = ps;
      o_opt_visits = ov;
      o_opt_secs = os_;
      o_agree = !agree;
    }
  in
  let rows = List.map bench high_activity_workloads in
  Fmt.pr "  %-26s %8s %8s %8s %8s %10s %9s %8s %6s@." "workload" "gates"
    "drivers" "folded" "merged" "visits" "secs" "speedup" "agree";
  List.iter
    (fun r ->
      let s = r.o_stats in
      Fmt.pr "  %-26s %8s %8s %8s %8s %10d %9.4f %8s %6s@." r.o_design
        (Printf.sprintf "%d" s.Reduce.gates_before)
        (Printf.sprintf "%d" s.Reduce.drivers_before)
        "-" "-" r.o_plain_visits r.o_plain_secs "1.0x" "-";
      Fmt.pr "  %-26s %8s %8s %8s %8s %10d %9.4f %7.1fx %6s@." "  (optimized)"
        (Printf.sprintf "%d" s.Reduce.gates_after)
        (Printf.sprintf "%d" s.Reduce.drivers_after)
        (Printf.sprintf "%d" s.Reduce.consts_folded)
        (Printf.sprintf "%d" s.Reduce.copies_merged)
        r.o_opt_visits r.o_opt_secs
        (r.o_plain_secs /. Float.max 1e-9 r.o_opt_secs)
        (if r.o_agree then "yes" else "NO"))
    rows;
  e16_write_json rows "BENCH_opt.json"

(* ------------------------------------------------------------------ *)
(* E17: the compiled bytecode engine                                    *)
(* ------------------------------------------------------------------ *)

type e17_row = {
  b_design : string;
  b_cycles : int;
  b_incr_visits : int;
  b_incr_secs : float;
  b_visits : int;
  b_secs : float;
  b_prog_ops : int;
  b_scalar_ops : int;
  b_vector_ops : int;
  b_vector_lanes : int;
  b_agree : bool;
}

(* The high-activity workloads, with the poke paths resolved once
   per design instead of sprintf+resolve on every cycle — the stimulus
   must not dominate the measurement when the engine under test spends
   well under a millisecond per cycle. *)
let e17_workloads =
  [
    ( "routing(128)/all-headers",
      Corpus.routing_network 128,
      fun d ->
        let nets =
          Array.init 128 (fun i ->
              match
                Elaborate.resolve_path d (Printf.sprintf "net.input[%d]" i)
              with
              | Ok nets -> nets
              | Error msg -> failwith msg)
        in
        let headers =
          Array.init 1024 (fun v -> Cval.sctree_leaves (Cval.bin v 10))
        in
        ( (fun sim ->
            for i = 0 to 127 do
              Sim.poke_nets sim nets.(i) headers.(i)
            done),
          fun sim c ->
            for i = 0 to 127 do
              Sim.poke_nets sim nets.(i) headers.((i + c) land 1023)
            done ) );
    ( "htree(256)/root-toggle",
      Corpus.htree 256,
      fun _ ->
        ( (fun sim -> Sim.poke_bool sim "a.in" false),
          fun sim c -> Sim.poke_bool sim "a.in" (c land 1 = 1) ) );
    ( "patternmatch(9)/stream",
      Corpus.patternmatch 9,
      fun _ ->
        ( (fun sim ->
            List.iter
              (fun p -> Sim.poke_bool sim ("match." ^ p) false)
              [ "pattern"; "string"; "endofpattern"; "wild"; "resultin" ]),
          fun sim c ->
            Sim.poke_bool sim "match.pattern" (c land 1 = 1);
            Sim.poke_bool sim "match.string" (c land 2 = 2);
            Sim.poke_bool sim "match.endofpattern" (c mod 9 = 0);
            Sim.poke_bool sim "match.wild" (c land 4 = 4);
            Sim.poke_bool sim "match.resultin" (c land 1 = 0) ) );
  ]

let e17_write_json rows path =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"experiments\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"design\": %S, \"cycles\": %d,\n\
           \     \"incremental\": {\"node_visits\": %d, \"seconds\": %.6f},\n\
           \     \"compiled\": {\"node_visits\": %d, \"seconds\": %.6f, \
            \"speedup\": %.2f,\n\
           \       \"prog_ops\": %d, \"scalar_ops\": %d, \"vector_ops\": \
            %d, \"vector_lanes\": %d,\n\
           \       \"snapshots_agree\": %b}}"
           r.b_design r.b_cycles r.b_incr_visits r.b_incr_secs r.b_visits
           r.b_secs
           (r.b_incr_secs /. Float.max 1e-9 r.b_secs)
           r.b_prog_ops r.b_scalar_ops r.b_vector_ops r.b_vector_lanes
           r.b_agree))
    rows;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "wrote %s@." path

let e17_compiled ~cycles () =
  section "E17"
    "compiled bytecode engine: wall clock and program shape vs incremental \
     (high-activity workloads, poke paths preresolved)";
  let bench (name, src, prepare) =
    let d = compile src in
    let warm, stim = prepare d in
    let run engine =
      let sim = Sim.create ~engine d in
      warm sim;
      Sim.step sim;
      (* cold-start cycle (and the one-time compile) excluded *)
      let v0 = Sim.node_visits sim in
      let t0 = Unix.gettimeofday () in
      for c = 1 to cycles do
        stim sim c;
        Sim.step sim
      done;
      (Sim.node_visits sim - v0, Unix.gettimeofday () -. t0, sim)
    in
    let iv, is_, isim = run Sim.Incremental in
    let cv, cs, csim = run Sim.Compiled in
    let stats =
      match Sim.compiled_stats csim with Some s -> s | None -> assert false
    in
    {
      b_design = name;
      b_cycles = cycles;
      b_incr_visits = iv;
      b_incr_secs = is_;
      b_visits = cv;
      b_secs = cs;
      b_prog_ops = stats.Sim.c_ops;
      b_scalar_ops = stats.Sim.c_scalar_ops;
      b_vector_ops = stats.Sim.c_vector_ops;
      b_vector_lanes = stats.Sim.c_vector_lanes;
      b_agree = Sim.snapshot csim = Sim.snapshot isim;
    }
  in
  let rows = List.map bench e17_workloads in
  Fmt.pr "  %-26s %10s %10s %9s %8s %8s %8s %6s@." "workload" "engine"
    "visits" "secs" "speedup" "progops" "vlanes" "agree";
  List.iter
    (fun r ->
      Fmt.pr "  %-26s %10s %10d %9.4f %8s %8s %8s %6s@." r.b_design "incr"
        r.b_incr_visits r.b_incr_secs "1.0x" "-" "-" "-";
      Fmt.pr "  %-26s %10s %10d %9.4f %7.1fx %8d %8d %6s@." "" "compiled"
        r.b_visits r.b_secs
        (r.b_incr_secs /. Float.max 1e-9 r.b_secs)
        r.b_prog_ops r.b_vector_lanes
        (if r.b_agree then "yes" else "NO"))
    rows;
  Fmt.pr "(program shape is design-deterministic; wall-clock speedup is \
          machine-dependent)@.";
  e17_write_json rows "BENCH_compiled.json"

(* ------------------------------------------------------------------ *)
(* E18: the batch engine (whole-run sharding + lane packing)            *)
(* ------------------------------------------------------------------ *)

type e18_row = {
  t_design : string;
  t_runs : int;
  t_cycles : int; (* per run *)
  t_jobs : int;
  t_lanes : int;
  t_serial_secs : float; (* fresh incremental handle per run *)
  t_cold_secs : float; (* template create (incl. compile) + run_batch *)
  t_warm_secs : float; (* run_batch on the warm template *)
  t_groups : int; (* lane groups executed *)
  t_lane_runs : int;
  t_fallback_runs : int; (* runs that took the serial fallback *)
  t_agree : bool; (* every final snapshot matches its serial run *)
}

(* The high-activity corpus restated as independent batch runs: run
   [r] drives the same nets with a per-run offset, so no two runs share
   a stimulus (and each run gets its own RANDOM seed). *)
let e18_workloads =
  [
    ( "routing(128)/all-headers",
      Corpus.routing_network 128,
      fun ~runs ~cycles ->
        let headers =
          Array.init 1024 (fun v -> Cval.sctree_leaves (Cval.bin v 10))
        in
        let paths =
          Array.init 128 (fun i -> Printf.sprintf "net.input[%d]" i)
        in
        Array.init runs (fun r ->
            Array.init cycles (fun c ->
                Array.to_list
                  (Array.mapi
                     (fun i p -> (p, headers.((i + c + (7 * r)) land 1023)))
                     paths))) );
    ( "htree(256)/root-toggle",
      Corpus.htree 256,
      fun ~runs ~cycles ->
        Array.init runs (fun r ->
            Array.init cycles (fun c ->
                [
                  ( "a.in",
                    [ (if (c + r) land 1 = 1 then Logic.One else Logic.Zero) ]
                  );
                ])) );
    ( "patternmatch(9)/stream",
      Corpus.patternmatch 9,
      fun ~runs ~cycles ->
        let b v = [ (if v then Logic.One else Logic.Zero) ] in
        Array.init runs (fun r ->
            Array.init cycles (fun c ->
                let c = c + r in
                [
                  ("match.pattern", b (c land 1 = 1));
                  ("match.string", b (c land 2 = 2));
                  ("match.endofpattern", b (c mod 9 = 0));
                  ("match.wild", b (c land 4 = 4));
                  ("match.resultin", b (c land 1 = 0));
                ])) );
  ]

let e18_write_json rows path =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"experiments\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      let rps secs = float_of_int r.t_runs /. Float.max 1e-9 secs in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"design\": %S, \"runs\": %d, \"cycles\": %d, \"jobs\": \
            %d, \"lanes\": %d,\n\
           \     \"lane_groups\": %d, \"lane_runs\": %d, \
            \"serial_fallback_runs\": %d,\n\
           \     \"serial\": {\"seconds\": %.6f, \"serial_runs_per_sec\": \
            %.1f},\n\
           \     \"batch\": {\"cold_seconds\": %.6f, \
            \"cold_runs_per_sec\": %.1f,\n\
           \       \"warm_seconds\": %.6f, \"warm_runs_per_sec\": %.1f,\n\
           \       \"speedup_cold\": %.2f, \"speedup_warm\": %.2f, \
            \"snapshots_agree\": %b}}"
           r.t_design r.t_runs r.t_cycles r.t_jobs r.t_lanes r.t_groups
           r.t_lane_runs r.t_fallback_runs r.t_serial_secs
           (rps r.t_serial_secs) r.t_cold_secs (rps r.t_cold_secs)
           r.t_warm_secs (rps r.t_warm_secs)
           (r.t_serial_secs /. Float.max 1e-9 r.t_cold_secs)
           (r.t_serial_secs /. Float.max 1e-9 r.t_warm_secs)
           r.t_agree))
    rows;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "wrote %s@." path

let e18_batch ~runs:nruns ~cycles ~jobs () =
  section "E18"
    (Printf.sprintf
       "batch engine: whole-run sharding + lane packing, runs/second vs a \
        fresh serial incremental handle per run (jobs=%d, lanes=8)"
       jobs);
  let lanes = 8 in
  let bench (name, src, mk) =
    let d = compile src in
    let stims = mk ~runs:nruns ~cycles in
    let batch_runs =
      Array.to_list
        (Array.mapi
           (fun r stim ->
             {
               Sim.br_stim = stim;
               br_cycles = cycles;
               br_seed = Some r;
               br_watch = [];
             })
           stims)
    in
    (* serial baseline: one fresh incremental handle per run; poke
       paths pre-resolved once per design so the stimulus does not
       dominate the measurement (as in E17) *)
    let resolved = Hashtbl.create 64 in
    Array.iter
      (Array.iter
         (List.iter (fun (p, _) ->
              if not (Hashtbl.mem resolved p) then
                match Elaborate.resolve_path d p with
                | Ok nets -> Hashtbl.add resolved p nets
                | Error m -> failwith m)))
      stims;
    let serial_snaps = Array.make nruns [||] in
    let t0 = Unix.gettimeofday () in
    Array.iteri
      (fun r stim ->
        let sim = Sim.create ~engine:Sim.Incremental ~seed:r d in
        Array.iter
          (fun pokes ->
            List.iter
              (fun (p, bits) ->
                Sim.poke_nets sim (Hashtbl.find resolved p) bits)
              pokes;
            Sim.step sim)
          stim;
        serial_snaps.(r) <- Sim.snapshot sim)
      stims;
    let serial_secs = Unix.gettimeofday () -. t0 in
    (* cold: template creation (graph, schedule, one-time bytecode
       compile) plus the batch itself *)
    let t0 = Unix.gettimeofday () in
    let tmpl = Sim.create ~engine:Sim.Compiled d in
    let cold_results, st = Sim.run_batch ~jobs ~lanes tmpl batch_runs in
    let cold_secs = Unix.gettimeofday () -. t0 in
    (* warm: the template (and its compiled program) is reused *)
    let t0 = Unix.gettimeofday () in
    let warm_results, _ = Sim.run_batch ~jobs ~lanes tmpl batch_runs in
    let warm_secs = Unix.gettimeofday () -. t0 in
    let agree = ref true in
    let check_snaps results =
      List.iteri
        (fun r (res : Sim.batch_result) ->
          if res.Sim.bres_snapshot <> serial_snaps.(r) then agree := false)
        results
    in
    check_snaps cold_results;
    check_snaps warm_results;
    {
      t_design = name;
      t_runs = nruns;
      t_cycles = cycles;
      t_jobs = jobs;
      t_lanes = lanes;
      t_serial_secs = serial_secs;
      t_cold_secs = cold_secs;
      t_warm_secs = warm_secs;
      t_groups = st.Sim.bs_lane_groups;
      t_lane_runs = st.Sim.bs_lane_runs;
      t_fallback_runs = st.Sim.bs_serial_runs;
      t_agree = !agree;
    }
  in
  let rows = List.map bench e18_workloads in
  (* the acceptance metric: runs/second over the whole corpus — one
     slow-to-simulate design must not hide behind two fast ones (or
     vice versa), so the totals weight each run by its true cost *)
  let total =
    List.fold_left
      (fun acc r ->
        {
          acc with
          t_runs = acc.t_runs + r.t_runs;
          t_serial_secs = acc.t_serial_secs +. r.t_serial_secs;
          t_cold_secs = acc.t_cold_secs +. r.t_cold_secs;
          t_warm_secs = acc.t_warm_secs +. r.t_warm_secs;
          t_groups = acc.t_groups + r.t_groups;
          t_lane_runs = acc.t_lane_runs + r.t_lane_runs;
          t_fallback_runs = acc.t_fallback_runs + r.t_fallback_runs;
          t_agree = acc.t_agree && r.t_agree;
        })
      {
        t_design = "corpus-total";
        t_runs = 0;
        t_cycles = cycles;
        t_jobs = jobs;
        t_lanes = lanes;
        t_serial_secs = 0.;
        t_cold_secs = 0.;
        t_warm_secs = 0.;
        t_groups = 0;
        t_lane_runs = 0;
        t_fallback_runs = 0;
        t_agree = true;
      }
      rows
  in
  let rows = rows @ [ total ] in
  Fmt.pr "  %-26s %6s %7s %10s %9s %8s %7s %6s@." "workload" "mode" "runs"
    "runs/sec" "secs" "speedup" "groups" "agree";
  List.iter
    (fun r ->
      let rps secs = float_of_int r.t_runs /. Float.max 1e-9 secs in
      Fmt.pr "  %-26s %6s %7d %10.1f %9.4f %8s %7s %6s@." r.t_design "serial"
        r.t_runs (rps r.t_serial_secs) r.t_serial_secs "1.0x" "-" "-";
      Fmt.pr "  %-26s %6s %7d %10.1f %9.4f %7.1fx %7d %6s@." "" "cold"
        r.t_runs (rps r.t_cold_secs) r.t_cold_secs
        (r.t_serial_secs /. Float.max 1e-9 r.t_cold_secs)
        r.t_groups
        (if r.t_agree then "yes" else "NO");
      Fmt.pr "  %-26s %6s %7d %10.1f %9.4f %7.1fx %7d %6s@." "" "warm"
        r.t_runs (rps r.t_warm_secs) r.t_warm_secs
        (r.t_serial_secs /. Float.max 1e-9 r.t_warm_secs)
        r.t_groups
        (if r.t_agree then "yes" else "NO"))
    rows;
  Fmt.pr "(counters are deterministic in (design, runs, jobs, lanes); \
          runs/second is machine-dependent)@.";
  e18_write_json rows "BENCH_batch.json"

(* ------------------------------------------------------------------ *)
(* E19: the bounded sequential prover + conflict-check discharge        *)
(* ------------------------------------------------------------------ *)

type e19_row = {
  v_design : string;
  v_cycles : int;
  v_regs : int;
  v_nrc_nets : int; (* needs-runtime-check before the prover *)
  v_upgraded_nets : int; (* ... upgraded to safe-sequential *)
  v_splits : int;
  v_prove_secs : float;
  v_check_ops : int; (* compiled engine, no discharge *)
  v_plain_secs : float;
  v_disch_check_ops : int; (* ... with --discharge *)
  v_discharged_ops : int;
  v_disch_secs : float;
  v_agree : bool; (* final snapshots identical with and without *)
}

(* Register-heavy machines whose driver exclusivity is sequential —
   the regime the prover targets — plus one registerless high-activity
   workload as the no-op control (proof cost on a purely combinational
   design).
   Each workload is (name, source, warm-up pokes, per-cycle stimulus);
   the stimulus pokes only defined values, which is the environment
   assumption discharge lives under. *)
let e19_workloads =
  [
    ( "pqueue(8x4)/ins-ext",
      Corpus.priority_queue ~slots:8 ~width:4,
      (fun sim ->
        Sim.poke_bool sim "pq.ins" false;
        Sim.poke_bool sim "pq.ext" false;
        Sim.poke_int sim "pq.din" 0),
      fun sim c ->
        (* alternate insert / idle / extract / idle *)
        Sim.poke_bool sim "pq.ins" (c land 3 = 0);
        Sim.poke_bool sim "pq.ext" (c land 3 = 2);
        Sim.poke_int sim "pq.din" (c land 15) );
    ( "sorter(8x4)/reload",
      Corpus.sorter ~n:8 ~w:4,
      (fun sim ->
        Sim.poke_bool sim "srt.load" false;
        for i = 1 to 8 do
          Sim.poke_int sim (Printf.sprintf "srt.din[%d]" i) 0
        done),
      fun sim c ->
        (* reload a fresh vector every 10 cycles, sort in between *)
        Sim.poke_bool sim "srt.load" (c mod 10 = 0);
        for i = 1 to 8 do
          Sim.poke_int sim
            (Printf.sprintf "srt.din[%d]" i)
            ((c + (3 * i)) land 15)
        done );
    ( "htree(256)/root-toggle",
      Corpus.htree 256,
      (fun sim -> Sim.poke_bool sim "a.in" false),
      fun sim c -> Sim.poke_bool sim "a.in" (c land 1 = 1) );
  ]

let e19_write_json rows path =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"experiments\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"design\": %S, \"cycles\": %d,\n\
           \     \"prove\": {\"registers\": %d, \"nrc_nets\": %d, \
            \"upgraded_nets\": %d, \"splits\": %d, \"seconds\": %.6f},\n\
           \     \"plain\": {\"check_ops\": %d, \"seconds\": %.6f},\n\
           \     \"discharged\": {\"check_ops\": %d, \"discharged_ops\": \
            %d, \"seconds\": %.6f,\n\
           \       \"speedup\": %.2f, \"snapshots_agree\": %b}}"
           r.v_design r.v_cycles r.v_regs r.v_nrc_nets r.v_upgraded_nets
           r.v_splits r.v_prove_secs r.v_check_ops r.v_plain_secs
           r.v_disch_check_ops r.v_discharged_ops r.v_disch_secs
           (r.v_plain_secs /. Float.max 1e-9 r.v_disch_secs)
           r.v_agree))
    rows;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "wrote %s@." path

let e19_prove ~cycles () =
  section "E19"
    "bounded sequential prover: proof cost, upgraded nets, and the \
     compiled engine with conflict checks discharged";
  let bench (name, src, warm, stim) =
    let d = compile src in
    let lint = Lint.run d in
    let nrc =
      Array.fold_left
        (fun acc (v : Lint.net_verdict) ->
          match v.Lint.v_class with
          | Lint.Needs_runtime_check -> acc + 1
          | _ -> acc)
        0
        (Array.of_list lint.Lint.verdicts)
    in
    let t0 = Unix.gettimeofday () in
    let sp = Seqprove.run ~lint d in
    let prove_secs = Unix.gettimeofday () -. t0 in
    let disch = Seqprove.discharged d sp in
    let run ?discharged () =
      let sim = Sim.create ~engine:Sim.Compiled ?discharged d in
      warm sim;
      Sim.step sim;
      (* cold-start cycle (and the one-time compile) excluded *)
      let t0 = Unix.gettimeofday () in
      for c = 1 to cycles do
        stim sim c;
        Sim.step sim
      done;
      let secs = Unix.gettimeofday () -. t0 in
      let stats =
        match Sim.compiled_stats sim with Some s -> s | None -> assert false
      in
      (secs, stats, sim)
    in
    let ps, pstats, psim = run () in
    let ds, dstats, dsim = run ~discharged:(fun c -> disch.(c)) () in
    {
      v_design = name;
      v_cycles = cycles;
      v_regs = List.length sp.Seqprove.sp_regs;
      v_nrc_nets = nrc;
      v_upgraded_nets = List.length sp.Seqprove.sp_upgraded;
      v_splits = sp.Seqprove.sp_splits;
      v_prove_secs = prove_secs;
      v_check_ops = pstats.Sim.c_check_ops;
      v_plain_secs = ps;
      v_disch_check_ops = dstats.Sim.c_check_ops;
      v_discharged_ops = dstats.Sim.c_discharged_ops;
      v_disch_secs = ds;
      v_agree = Sim.snapshot dsim = Sim.snapshot psim;
    }
  in
  let rows = List.map bench e19_workloads in
  Fmt.pr "  %-26s %5s %5s %8s %8s %9s %8s %8s %9s %6s@." "workload" "regs"
    "nrc" "upgrade" "splits" "prove-s" "chkops" "dischrg" "secs" "agree";
  List.iter
    (fun r ->
      Fmt.pr "  %-26s %5d %5d %8d %8d %9.4f %8d %8s %9.4f %6s@." r.v_design
        r.v_regs r.v_nrc_nets r.v_upgraded_nets r.v_splits r.v_prove_secs
        r.v_check_ops "-" r.v_plain_secs "-";
      Fmt.pr "  %-26s %5s %5s %8s %8s %9s %8d %8d %9.4f %6s@."
        "  (discharged)" "" "" "" "" "" r.v_disch_check_ops
        r.v_discharged_ops r.v_disch_secs
        (if r.v_agree then "yes" else "NO"))
    rows;
  Fmt.pr "(proof counters are design-deterministic; wall-clock is \
          machine-dependent)@.";
  e19_write_json rows "BENCH_prove.json"

(* ------------------------------------------------------------------ *)
(* Timing benchmarks (Bechamel)                                         *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let compile_test name src =
    Test.make ~name (Staged.stage (fun () -> ignore (Zeus.compile src)))
  in
  let sim_cycle_test ?(engine = Sim.Firing) name src =
    let d = compile src in
    let sim = Sim.create ~engine d in
    Test.make ~name (Staged.stage (fun () -> Sim.step sim))
  in
  let layout_test name src top =
    let d = compile src in
    Test.make ~name (Staged.stage (fun () -> ignore (Floorplan.of_design d top)))
  in
  Test.make_grouped ~name:"zeus"
    [
      (* E1: compile + simulate scaling on the adder family *)
      compile_test "e1/compile/adder8" (Corpus.adder_n 8);
      compile_test "e1/compile/adder64" (Corpus.adder_n 64);
      sim_cycle_test "e1/cycle/adder8" (Corpus.adder_n 8);
      sim_cycle_test "e1/cycle/adder64" (Corpus.adder_n 64);
      (* E2 *)
      compile_test "e2/compile/blackjack" Corpus.blackjack;
      sim_cycle_test "e2/cycle/blackjack" Corpus.blackjack;
      (* E3 *)
      layout_test "e3/floorplan/htree256" (Corpus.htree 256) "a";
      (* E4 *)
      sim_cycle_test "e4/cycle/patternmatch9" (Corpus.patternmatch 9);
      (* E6 *)
      compile_test "e6/compile/routing32" (Corpus.routing_network 32);
      (* E8: one cycle under each scheduling engine *)
      sim_cycle_test ~engine:Sim.Firing "e8/firing/adder64" (Corpus.adder_n 64);
      sim_cycle_test ~engine:Sim.Fixpoint "e8/fixpoint/adder64"
        (Corpus.adder_n 64);
      sim_cycle_test ~engine:Sim.Relaxation "e8/relaxation/adder64"
        (Corpus.adder_n 64);
      sim_cycle_test ~engine:Sim.Incremental "e8/incremental/adder64"
        (Corpus.adder_n 64);
      (* A1: the abstract's machines *)
      sim_cycle_test "a1/cycle/am2901" Corpus.am2901;
      sim_cycle_test "a1/cycle/stack32" (Corpus.stack ~depth:32 ~width:8);
      sim_cycle_test "a1/cycle/dictionary16"
        (Corpus.dictionary ~slots:16 ~keybits:8);
    ]

let run_timing () =
  let open Bechamel in
  let open Toolkit in
  section "TIMING" "Bechamel estimates (ns per run, monotonic clock)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~stabilize:false ~quota:(Time.second 0.25) ()
  in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some [ e ] -> Fmt.str "%12.0f ns/run" e
        | _ -> "(no estimate)"
      in
      Fmt.pr "  %-32s %s@." name est)
    (List.sort compare rows)

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let batch_smoke = Array.exists (( = ) "--batch-smoke") Sys.argv in
  let timing =
    (not (Array.exists (( = ) "--no-timing") Sys.argv))
    && (not smoke) && not batch_smoke
  in
  if batch_smoke then begin
    (* CI batch job: only E18, at the hosted runner's 2 cores — the
       artifact is uploaded, not checked against the committed jobs=4
       baseline (the counters are jobs-dependent) *)
    Fmt.pr "Zeus benchmark suite (batch smoke mode: E18 only)@.";
    e18_batch ~runs:16 ~cycles:10 ~jobs:2 ()
  end
  else if smoke then begin
    (* CI mode: only the simulator benches, shortened, plus the JSON dump *)
    Fmt.pr "Zeus benchmark suite (smoke mode: simulator benches only)@.";
    e8_simcmp ();
    e13_incremental ~cycles:50 ();
    e14_modular ~smoke:true ();
    e16_opt ~cycles:20 ();
    e17_compiled ~cycles:50 ();
    e18_batch ~runs:16 ~cycles:10 ~jobs:4 ();
    e19_prove ~cycles:50 ()
  end
  else begin
    Fmt.pr "Zeus reproduction benchmark suite (every table/figure of the \
            report's examples)@.";
    e1_adders ();
    e2_blackjack ();
    e3_htree ();
    e4_patternmatch ();
    e5_evalseq ();
    e6_routing ();
    e7_typerules ();
    e8_simcmp ();
    e9_runtime_checks ();
    e10_lazy_ablation ();
    e11_autoplace ();
    a1_machines ();
    e13_incremental ~cycles:200 ();
    e14_modular ();
    e16_opt ~cycles:100 ();
    e17_compiled ~cycles:200 ();
    e18_batch ~runs:32 ~cycles:25 ~jobs:4 ();
    e19_prove ~cycles:200 ();
    if timing then run_timing ()
  end
