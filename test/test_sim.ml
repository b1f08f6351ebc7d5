(* The firing simulator of section 8: gate evaluation, registers,
   multiplex resolution, runtime checks, the evaluation-sequence trace,
   and the equivalence of all six scheduling engines (including the
   cross-cycle incremental engine and the bytecode-compiled one). *)

open Zeus

let logic = Alcotest.testable Logic.pp Logic.equal

let compile src =
  match Zeus.compile src with
  | Ok d -> d
  | Error diags -> Alcotest.failf "compile: %a" Fmt.(list Diag.pp) diags

let simple_gate op =
  compile
    (Printf.sprintf
       "TYPE t = COMPONENT (IN a,b: boolean; OUT y: boolean) IS BEGIN y := \
        %s(a,b) END; SIGNAL s: t;"
       op)

let eval2 d a b =
  let sim = Sim.create d in
  Sim.poke sim "s.a" [ a ];
  Sim.poke sim "s.b" [ b ];
  Sim.step sim;
  Sim.peek_bit sim "s.y"

let test_gate_sim () =
  let d = simple_gate "AND" in
  Alcotest.check logic "and 1 1" Logic.One (eval2 d Logic.One Logic.One);
  Alcotest.check logic "and 0 U" Logic.Zero (eval2 d Logic.Zero Logic.Undef);
  let d = simple_gate "NAND" in
  Alcotest.check logic "nand 1 1" Logic.Zero (eval2 d Logic.One Logic.One);
  let d = simple_gate "XOR" in
  Alcotest.check logic "xor 1 0" Logic.One (eval2 d Logic.One Logic.Zero);
  let d = simple_gate "EQUAL" in
  Alcotest.check logic "equal 0 0" Logic.One (eval2 d Logic.Zero Logic.Zero)

let test_unpoked_inputs_undef () =
  let d = simple_gate "OR" in
  let sim = Sim.create d in
  Sim.step sim;
  Alcotest.check logic "OR(U,U)" Logic.Undef (Sim.peek_bit sim "s.y");
  Sim.poke sim "s.a" [ Logic.One ];
  Sim.step sim;
  (* early firing: OR fires 1 even though b is UNDEF *)
  Alcotest.check logic "OR(1,U)" Logic.One (Sim.peek_bit sim "s.y")

(* ---- registers (section 5.1) ---- *)

let reg_design =
  "TYPE t = COMPONENT (IN d,en: boolean; OUT q: boolean) IS SIGNAL r: REG; \
   BEGIN IF en THEN r.in := d END; q := r.out END; SIGNAL s: t;"

let test_reg_delay () =
  let d = compile reg_design in
  let sim = Sim.create d in
  Sim.poke_bool sim "s.en" true;
  Sim.poke_bool sim "s.d" true;
  Sim.step sim;
  (* q is last cycle's input: still UNDEF *)
  Alcotest.check logic "initial out" Logic.Undef (Sim.peek_bit sim "s.q");
  Sim.step sim;
  Alcotest.check logic "one cycle later" Logic.One (Sim.peek_bit sim "s.q")

let test_reg_holds_value () =
  let d = compile reg_design in
  let sim = Sim.create d in
  Sim.poke_bool sim "s.en" true;
  Sim.poke_bool sim "s.d" true;
  Sim.step sim;
  (* disable: the input gets NOINFL, the register keeps its value *)
  Sim.poke_bool sim "s.en" false;
  Sim.step sim;
  Sim.step sim;
  Sim.step sim;
  Alcotest.check logic "held" Logic.One (Sim.peek_bit sim "s.q")

let test_reg_same_cycle_read_write () =
  (* "in the same clock cycle the in port is assigned and the stored
     value is read at the out port" — a toggle flip-flop *)
  let d =
    compile
      "TYPE t = COMPONENT (IN a: boolean; OUT q: boolean) IS SIGNAL r: REG; \
       BEGIN IF RSET THEN r.in := 0 ELSE r.in := XOR(r.out,a) END; q := \
       r.out END; SIGNAL s: t;"
  in
  let sim = Sim.create d in
  Sim.poke_bool sim "s.a" true;
  Sim.reset sim;
  Sim.step sim;
  Alcotest.check logic "t1" Logic.Zero (Sim.peek_bit sim "s.q")
  |> fun () ->
  Sim.step sim;
  Alcotest.check logic "t2" Logic.One (Sim.peek_bit sim "s.q");
  Sim.step sim;
  Alcotest.check logic "t3" Logic.Zero (Sim.peek_bit sim "s.q")

(* ---- multiplex resolution and the runtime check ---- *)

let mux_design =
  "TYPE t = COMPONENT (IN b,c,x,y: boolean; m: multiplex) IS BEGIN IF b \
   THEN m := x END; IF c THEN m := y END END; SIGNAL s: t;"

let test_mux_single_drive () =
  let d = compile mux_design in
  let sim = Sim.create d in
  Sim.poke_bool sim "s.b" true;
  Sim.poke_bool sim "s.c" false;
  Sim.poke_bool sim "s.x" true;
  Sim.poke_bool sim "s.y" false;
  Sim.step sim;
  Alcotest.check logic "selected x" Logic.One (Sim.peek_bit sim "s.m");
  Alcotest.(check int) "no runtime errors" 0
    (List.length (Sim.runtime_errors sim))

let test_mux_no_drive_noinfl () =
  let d = compile mux_design in
  let sim = Sim.create d in
  Sim.poke_bool sim "s.b" false;
  Sim.poke_bool sim "s.c" false;
  Sim.poke_bool sim "s.x" true;
  Sim.poke_bool sim "s.y" false;
  Sim.step sim;
  Alcotest.check logic "high impedance" Logic.Noinfl (Sim.peek_bit sim "s.m")

let test_mux_conflict_detected () =
  (* both guards on: the "burning transistors" runtime check fires *)
  let d = compile mux_design in
  let sim = Sim.create d in
  Sim.poke_bool sim "s.b" true;
  Sim.poke_bool sim "s.c" true;
  Sim.poke_bool sim "s.x" true;
  Sim.poke_bool sim "s.y" false;
  Sim.step sim;
  Alcotest.(check bool) "conflict reported" true
    (Sim.runtime_errors sim <> []);
  Alcotest.check logic "forced UNDEF" Logic.Undef (Sim.peek_bit sim "s.m")

let test_mux_undef_guard () =
  (* IF with UNDEF condition drives UNDEF (section 8) *)
  let d = compile mux_design in
  let sim = Sim.create d in
  Sim.poke_bool sim "s.c" false;
  Sim.poke_bool sim "s.x" true;
  Sim.poke_bool sim "s.y" false;
  (* b left undefined *)
  Sim.step sim;
  Alcotest.check logic "undef guard" Logic.Undef (Sim.peek_bit sim "s.m")

let test_if_else_exclusive () =
  let d =
    compile
      "TYPE t = COMPONENT (IN b,x,y: boolean; OUT z: boolean) IS BEGIN IF b \
       THEN z := x ELSE z := y END END; SIGNAL s: t;"
  in
  let sim = Sim.create d in
  Sim.poke_bool sim "s.b" false;
  Sim.poke_bool sim "s.x" true;
  Sim.poke_bool sim "s.y" false;
  Sim.step sim;
  Alcotest.check logic "else branch" Logic.Zero (Sim.peek_bit sim "s.z");
  Alcotest.(check int) "exclusive" 0 (List.length (Sim.runtime_errors sim));
  Sim.poke_bool sim "s.b" true;
  Sim.step sim;
  Alcotest.check logic "then branch" Logic.One (Sim.peek_bit sim "s.z")

let test_elsif_chain () =
  let d =
    compile
      "TYPE bo2 = ARRAY[1..2] OF boolean; t = COMPONENT (IN a: bo2; OUT z: \
       ARRAY[1..2] OF boolean) IS BEGIN IF EQUAL(a,(0,0)) THEN z := (0,1) \
       ELSIF EQUAL(a,(0,1)) THEN z := (1,0) ELSIF EQUAL(a,(1,0)) THEN z := \
       (1,1) ELSE z := (0,0) END END; SIGNAL s: t;"
  in
  let sim = Sim.create d in
  List.iter
    (fun (input, want) ->
      Sim.poke_int sim "s.a" input;
      Sim.step sim;
      Alcotest.(check (option int))
        (Printf.sprintf "increment %d" input)
        (Some want) (Sim.peek_int sim "s.z"))
    [ (0, 1); (1, 2); (2, 3); (3, 0) ];
  Alcotest.(check int) "no conflicts" 0 (List.length (Sim.runtime_errors sim))

(* ---- boolean conversion on reads ---- *)

let test_noinfl_reads_undef_on_boolean () =
  let d =
    compile
      "TYPE t = COMPONENT (IN b,x: boolean; OUT z: boolean) IS SIGNAL m: \
       multiplex; BEGIN IF b THEN m := x END; z := m END; SIGNAL s: t;"
  in
  let sim = Sim.create d in
  Sim.poke_bool sim "s.b" false;
  Sim.poke_bool sim "s.x" true;
  Sim.step sim;
  (* m is NOINFL; the boolean z reads UNDEF through the amplifier *)
  Alcotest.check logic "amplified" Logic.Undef (Sim.peek_bit sim "s.z")

(* ---- RANDOM (predefined, section 7) ---- *)

let test_random_deterministic () =
  let d =
    compile
      "TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS BEGIN y := \
       AND(a,RANDOM()) END; SIGNAL s: t;"
  in
  let run seed =
    let sim = Sim.create ~seed d in
    Sim.poke_bool sim "s.a" true;
    List.init 20 (fun _ ->
        Sim.step sim;
        Sim.peek_bit sim "s.y")
  in
  Alcotest.(check bool) "same seed same stream" true (run 1 = run 1);
  Alcotest.(check bool) "streams contain both values" true
    (let s = run 7 in
     List.exists (Logic.equal Logic.One) s
     && List.exists (Logic.equal Logic.Zero) s)

(* ---- evaluation trace (E5) ---- *)

let test_trace_section8 () =
  let d = compile Corpus.section8_example in
  let sim = Sim.create d in
  Sim.set_trace sim true;
  List.iter
    (fun (p, v) -> Sim.poke_bool sim p v)
    [ ("top.a", true); ("top.b", true); ("top.cc", false); ("top.x", true);
      ("top.y", false); ("top.rin", true) ];
  Sim.step sim;
  let trace = Sim.trace_last_cycle sim in
  let fired_names = List.map fst trace in
  (* inputs fire before the gated output *)
  let idx name =
    let rec go i = function
      | [] -> Alcotest.failf "%s did not fire" name
      | n :: _ when n = name -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 fired_names
  in
  Alcotest.(check bool) "a before out" true (idx "top.a" < idx "top.out");
  Alcotest.(check bool) "x before out" true (idx "top.x" < idx "top.out");
  Alcotest.check logic "out value" Logic.One (Sim.peek_bit sim "top.out");
  (* rout is r.out: UNDEF in cycle 1, rin's value in cycle 2 *)
  Alcotest.check logic "rout cycle1" Logic.Undef (Sim.peek_bit sim "top.rout");
  Sim.step sim;
  Alcotest.check logic "rout cycle2" Logic.One (Sim.peek_bit sim "top.rout")

let test_section8_conflict_case () =
  (* x=1 and y=1 with AND(a,b) <> cc: the paper's own trace would drive
     out twice — the runtime check reports it (E9) *)
  let d = compile Corpus.section8_example in
  let sim = Sim.create d in
  List.iter
    (fun (p, v) -> Sim.poke_bool sim p v)
    [ ("top.a", true); ("top.b", true); ("top.cc", false); ("top.x", true);
      ("top.y", true); ("top.rin", false) ];
  Sim.step sim;
  Alcotest.(check bool) "double drive detected" true
    (Sim.runtime_errors sim <> [])

(* ---- engine equivalence (the section 8 claim) ---- *)

let engines_agree_on src ~inputs ~cycles =
  let d = compile src in
  let run engine =
    let sim = Sim.create ~engine d in
    List.iter (fun (p, v) -> Sim.poke sim p [ v ]) inputs;
    Sim.step_n sim cycles;
    Sim.snapshot sim
  in
  match List.map run Sim.all_engines with
  | [] -> true
  | a :: rest -> List.for_all (( = ) a) rest

let test_engines_agree_adder () =
  Alcotest.(check bool) "adder" true
    (engines_agree_on (Corpus.adder_n 8)
       ~inputs:
         [ ("adder.cin", Logic.One) ]
       ~cycles:1)

(* corpus-wide: every design, random stimulus on every top-level input
   pin, several cycles — all three engines bit-identical *)
let test_engines_agree_corpus () =
  List.iter
    (fun (name, src) ->
      let d = compile src in
      let inputs = Graph.top_input_nets d in
      let rng = Random.State.make [| 77 |] in
      let stimulus =
        List.init 4 (fun _ ->
            List.map
              (fun _ ->
                if Random.State.bool rng then Logic.One else Logic.Zero)
              inputs)
      in
      let run engine =
        let sim = Sim.create ~engine d in
        List.map
          (fun vec ->
            Sim.poke_nets sim inputs vec;
            Sim.step sim;
            Sim.snapshot sim)
          stimulus
      in
      let f = run Sim.Firing in
      List.iter
        (fun engine ->
          Alcotest.(check bool)
            (name ^ ": firing = " ^ Sim.engine_name engine)
            true
            (run engine = f))
        [ Sim.Firing_strict; Sim.Fixpoint; Sim.Relaxation; Sim.Incremental;
          Sim.Compiled ])
    Corpus.all_named

let test_engines_agree_blackjack () =
  Alcotest.(check bool) "blackjack" true
    (engines_agree_on Corpus.blackjack
       ~inputs:[ ("bj.ycard", Logic.One) ]
       ~cycles:5)

let prop_engines_agree_random_inputs =
  QCheck.Test.make ~count:50 ~name:"engines_agree_random_adder_inputs"
    QCheck.(triple (int_bound 255) (int_bound 255) bool)
    (fun (a, b, cin) ->
      let d = compile (Corpus.adder_n 8) in
      let run engine =
        let sim = Sim.create ~engine d in
        Sim.poke_int_lsb sim "adder.a" a;
        Sim.poke_int_lsb sim "adder.b" b;
        Sim.poke_bool sim "adder.cin" cin;
        Sim.step sim;
        (Sim.peek_int_lsb sim "adder.s", Sim.peek_bit sim "adder.cout")
      in
      let r1 = run Sim.Firing in
      List.for_all (fun e -> run e = r1) Sim.all_engines
      && fst r1 = Some ((a + b + if cin then 1 else 0) land 255))

(* Drive-conflict re-propagation: the section 8 example one gate deeper.
   The first driving value (x=1) lets NOT and AND consumers fire before
   the second driver turns m into UNDEF — without the re-propagation
   pass, z and w would keep the stale values of the first drive, and
   differ between engines. *)
let test_conflict_repropagates_downstream () =
  let d =
    compile
      "TYPE t = COMPONENT (IN b,c,x,y: boolean; OUT z,w: boolean) IS SIGNAL \
       m: multiplex; BEGIN IF b THEN m := x END; IF c THEN m := y END; z := \
       NOT(m); w := AND(z,z) END; SIGNAL s: t;"
  in
  List.iter
    (fun engine ->
      let sim = Sim.create ~engine d in
      Sim.poke_bool sim "s.b" true;
      Sim.poke_bool sim "s.c" true;
      Sim.poke_bool sim "s.x" true;
      Sim.poke_bool sim "s.y" false;
      Sim.step sim;
      let n = Sim.engine_name engine in
      Alcotest.check logic (n ^ ": z re-fired") Logic.Undef
        (Sim.peek_bit sim "s.z");
      Alcotest.check logic (n ^ ": w re-fired") Logic.Undef
        (Sim.peek_bit sim "s.w");
      Alcotest.(check bool) (n ^ ": conflict reported") true
        (Sim.runtime_errors sim <> []))
    Sim.all_engines

(* Standing conflicts are re-reported every cycle by every engine,
   including the incremental one (which otherwise does no work on a
   quiescent cycle). *)
let test_conflict_reported_each_cycle () =
  let d = compile mux_design in
  List.iter
    (fun engine ->
      let sim = Sim.create ~engine d in
      Sim.poke_bool sim "s.b" true;
      Sim.poke_bool sim "s.c" true;
      Sim.poke_bool sim "s.x" true;
      Sim.poke_bool sim "s.y" false;
      Sim.step_n sim 3;
      Alcotest.(check int)
        (Sim.engine_name engine ^ ": one error per cycle")
        3
        (List.length (Sim.runtime_errors sim)))
    Sim.all_engines

(* The Relaxation mop-up fallback must sweep against creation order like
   the engine's main loop: on a design with a combinational cycle (a
   check error, but still simulatable) the outputs fed by the forced
   nets fire in reverse creation order — and all engines still agree. *)
let test_mop_up_respects_relaxation_order () =
  let src =
    "TYPE t = COMPONENT (IN a: boolean; OUT z1,z2: boolean) IS SIGNAL p,q: \
     boolean; BEGIN p := AND(a,q); q := OR(p,a); z1 := p; z2 := q END; \
     SIGNAL s: t;"
  in
  let d =
    match Zeus.elaborate_with_diags src with
    | Some d, _ -> d
    | None, diags -> Alcotest.failf "parse: %a" Fmt.(list Diag.pp) diags
  in
  let trace engine =
    let sim = Sim.create ~engine d in
    Sim.set_trace sim true;
    (* a stays UNDEF so the p/q cycle never resolves and mop-up runs *)
    Sim.step sim;
    (List.map fst (Sim.trace_last_cycle sim), Sim.snapshot sim)
  in
  let idx names n =
    match List.find_index (( = ) n) names with
    | Some i -> i
    | None -> Alcotest.failf "%s did not fire" n
  in
  let fx_names, fx_snap = trace Sim.Fixpoint in
  let rx_names, rx_snap = trace Sim.Relaxation in
  Alcotest.(check bool) "fixpoint mop-up fires z1 before z2" true
    (idx fx_names "s.z1" < idx fx_names "s.z2");
  Alcotest.(check bool) "relaxation mop-up fires z2 before z1" true
    (idx rx_names "s.z2" < idx rx_names "s.z1");
  Alcotest.(check bool) "cyclic design: engines still agree" true
    (fx_snap = rx_snap)

(* Sim.reset must not clobber the testbench's poke of RSET: holding the
   design in reset by poking RSET=1 survives a reset pulse. *)
let test_reset_restores_rset_poke () =
  let d =
    compile
      "TYPE t = COMPONENT (IN a: boolean; OUT q: boolean) IS SIGNAL r: REG; \
       BEGIN IF RSET THEN r.in := 0 ELSE r.in := XOR(r.out,a) END; q := \
       r.out END; SIGNAL s: t;"
  in
  List.iter
    (fun engine ->
      let n = Sim.engine_name engine in
      let sim = Sim.create ~engine d in
      Sim.poke_bool sim "s.a" true;
      Sim.poke sim "RSET" [ Logic.One ];
      Sim.step_n sim 2;
      Alcotest.check logic (n ^ ": held in reset") Logic.Zero
        (Sim.peek_bit sim "s.q");
      Sim.reset sim;
      (* the explicit One poke is restored, not overwritten with Zero *)
      Sim.step_n sim 2;
      Alcotest.check logic (n ^ ": still held after reset pulse") Logic.Zero
        (Sim.peek_bit sim "s.q");
      Sim.unpoke sim "RSET";
      Sim.step_n sim 2;
      Alcotest.check logic (n ^ ": toggles once released") Logic.One
        (Sim.peek_bit sim "s.q"))
    Sim.all_engines

(* The incremental engine does zero work on fully quiescent cycles and
   still reports the right values. *)
let test_incremental_quiescent_zero_visits () =
  let d = compile (Corpus.adder_n 16) in
  let sim = Sim.create ~engine:Sim.Incremental d in
  Sim.poke_int_lsb sim "adder.a" 1234;
  Sim.poke_int_lsb sim "adder.b" 4321;
  Sim.poke_bool sim "adder.cin" false;
  Sim.step sim;
  (* cold start: full evaluation *)
  Sim.step sim;
  (* first warm cycle: consumes the stale seed marks *)
  let v = Sim.node_visits sim in
  Sim.step_n sim 5;
  Alcotest.(check int) "quiescent cycles visit no nodes" v
    (Sim.node_visits sim);
  Alcotest.(check (option int)) "sum still right" (Some 5555)
    (Sim.peek_int_lsb sim "adder.s");
  (* a one-bit change wakes only a small cone *)
  Sim.poke_bool sim "adder.cin" true;
  Sim.step sim;
  Alcotest.(check (option int)) "incremental update" (Some 5556)
    (Sim.peek_int_lsb sim "adder.s")

(* Snapshots are identical across all six engines on random
   multi-cycle poke sequences over designs that include drive
   conflicts, registers and aliasing — with UNDEF in the stimulus
   alphabet, and runtime-error counts agreeing too.  Failures print
   the design name and stimulus, and shrink to a minimal poke
   sequence (fewer cycles, shorter vectors, values toward 0). *)
let prop_snapshot_identity =
  let pool =
    [|
      ("mux", mux_design);
      ("reg", reg_design);
      ("section8", Corpus.section8_example);
      ("adder4", Corpus.adder_n 4);
      ("blackjack", Corpus.blackjack);
    |]
  in
  let print (di, stimulus) =
    Printf.sprintf "design %s, stimulus [%s]"
      (fst pool.(di))
      (String.concat "; "
         (List.map
            (fun vec ->
              String.concat ""
                (List.map
                   (function 0 -> "0" | 1 -> "1" | _ -> "U")
                   vec))
            stimulus))
  in
  let shrink =
    QCheck.Shrink.(
      pair nil (list ~shrink:(list ~shrink:int)))
  in
  let gen =
    QCheck.Gen.(
      pair
        (int_bound (Array.length pool - 1))
        (list_size (1 -- 6) (list_size (0 -- 8) (int_bound 2))))
  in
  QCheck.Test.make ~count:40 ~name:"snapshot_identity_all_engines"
    (QCheck.make ~print ~shrink gen)
    (fun (di, stimulus) ->
      let d = compile (snd pool.(di)) in
      let inputs = Graph.top_input_nets d in
      let lv = function
        | 0 -> Logic.Zero
        | 1 -> Logic.One
        | _ -> Logic.Undef
      in
      let run engine =
        let sim = Sim.create ~engine d in
        let snaps =
          List.map
            (fun vec ->
              List.iteri
                (fun i id ->
                  match List.nth_opt vec (i mod max 1 (List.length vec)) with
                  | Some v -> Sim.poke_nets sim [ id ] [ lv v ]
                  | None -> ())
                inputs;
              Sim.step sim;
              Sim.snapshot sim)
            stimulus
        in
        (snaps, List.length (Sim.runtime_errors sim))
      in
      let r0 = run Sim.Firing in
      List.for_all (fun e -> run e = r0) Sim.all_engines)

(* firing does strictly less work than the sweeping baselines (E8) *)
let test_firing_fewer_visits () =
  let d = compile (Corpus.adder_n 32) in
  let visits engine =
    let sim = Sim.create ~engine d in
    Sim.poke_int_lsb sim "adder.a" 123456789;
    Sim.poke_int_lsb sim "adder.b" 987654321;
    Sim.poke_bool sim "adder.cin" false;
    Sim.step sim;
    Sim.node_visits sim
  in
  let f = visits Sim.Firing
  and fx = visits Sim.Fixpoint
  and rx = visits Sim.Relaxation in
  Alcotest.(check bool)
    (Printf.sprintf "firing(%d) < fixpoint(%d)" f fx)
    true (f < fx);
  Alcotest.(check bool)
    (Printf.sprintf "fixpoint(%d) <= relaxation(%d)" fx rx)
    true (fx <= rx)

(* ---- restart and the RANDOM stream ---- *)

(* Engine re-entry on one incremental handle.  [Sim.restart] returns
   the simulator to power-up, so two consecutive runs on the same
   handle must give identical cycle-for-cycle traces — residual
   dirty-set, conflict-list or epoch state from run 1 must not leak
   into run 2 — and both must match a fresh handle.  A mid-run
   [Sim.reset] (RSET pulse) before the restart makes the residual state
   as dirty as it gets. *)
let test_incremental_restart_reentry () =
  let d = compile Corpus.section8_example in
  let pokes =
    [ [ ("top.a", true); ("top.b", true); ("top.x", true); ("top.y", false) ];
      [ ("top.cc", true) ];
      [ ("top.a", false) ];
      [ ("top.rin", true) ];
      [] ]
  in
  let run_once sim =
    let snaps =
      List.map
        (fun vec ->
          List.iter (fun (p, v) -> Sim.poke_bool sim p v) vec;
          Sim.step sim;
          Sim.snapshot sim)
        pokes
    in
    Sim.reset sim;
    (* leave conflict / dirty machinery mid-flight before re-entry *)
    (snaps, List.length (Sim.runtime_errors sim))
  in
  let sim = Sim.create ~engine:Sim.Incremental d in
  let first = run_once sim in
  Sim.restart sim;
  let second = run_once sim in
  Alcotest.(check bool) "restart + re-entry: identical traces" true
    (first = second);
  let fresh = Sim.create ~engine:Sim.Incremental d in
  Alcotest.(check bool) "matches a fresh incremental run" true
    (run_once fresh = first)

(* The RANDOM stream is a pure function of (seed, net, cycle): the
   same seed gives the same stream on every engine, and different
   seeds diverge. *)
let test_random_stream_all_engines () =
  let d =
    compile
      "TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS BEGIN y := \
       AND(a,RANDOM()) END; SIGNAL s: t;"
  in
  let run ~engine ~seed =
    let sim = Sim.create ~engine ~seed d in
    Sim.poke_bool sim "s.a" true;
    List.init 24 (fun _ ->
        Sim.step sim;
        Sim.peek_bit sim "s.y")
  in
  let reference = run ~engine:Sim.Firing ~seed:7 in
  List.iter
    (fun engine ->
      Alcotest.(check bool)
        (Sim.engine_name engine ^ ": same RANDOM stream")
        true
        (run ~engine ~seed:7 = reference))
    Sim.all_engines;
  Alcotest.(check bool) "different seeds diverge" true
    (run ~engine:Sim.Incremental ~seed:8 <> reference)

(* ---- the compiled engine ---- *)

(* Restart + re-entry on one compiled handle: [Sim.restart] must return
   the packed planes, registers and poke mirror to power-up, so two
   consecutive runs give identical cycle-for-cycle traces — and both
   match a fresh incremental handle. *)
let test_compiled_restart_reentry () =
  let d = compile Corpus.section8_example in
  let pokes =
    [ [ ("top.a", true); ("top.b", true); ("top.x", true); ("top.y", false) ];
      [ ("top.cc", true) ];
      [ ("top.a", false) ];
      [ ("top.rin", true) ];
      [] ]
  in
  let run_once sim =
    let snaps =
      List.map
        (fun vec ->
          List.iter (fun (p, v) -> Sim.poke_bool sim p v) vec;
          Sim.step sim;
          Sim.snapshot sim)
        pokes
    in
    Sim.reset sim;
    (snaps, List.length (Sim.runtime_errors sim))
  in
  let csim = Sim.create ~engine:Sim.Compiled d in
  let first = run_once csim in
  Sim.restart csim;
  let second = run_once csim in
  Alcotest.(check bool) "restart + re-entry: identical traces" true
    (first = second);
  let isim = Sim.create ~engine:Sim.Incremental d in
  Alcotest.(check bool) "matches a fresh incremental run" true
    (run_once isim = first)

(* Program-shape stats: only the compiled engine reports them, every
   counter is a pure function of the design, and the opcode counts are
   consistent. *)
let test_compiled_stats_deterministic () =
  let d = compile (Corpus.adder_n 16) in
  let shape () =
    match Sim.compiled_stats (Sim.create ~engine:Sim.Compiled d) with
    | None -> Alcotest.fail "compiled engine must report stats"
    | Some s ->
        (s.Sim.c_ops, s.Sim.c_scalar_ops, s.Sim.c_vector_ops,
         s.Sim.c_vector_lanes, s.Sim.c_visits_per_cycle)
  in
  let ((ops, scalar, vector, lanes, visits) as a) = shape () in
  Alcotest.(check bool) "stats are deterministic" true (a = shape ());
  Alcotest.(check bool) "program is non-empty" true (ops > 0);
  Alcotest.(check int) "scalar + vector = ops" ops (scalar + vector);
  Alcotest.(check bool) "wide input seeds vectorized" true (lanes > 0);
  Alcotest.(check bool) "program encodes every node" true (visits > 0);
  let other = Sim.create ~engine:Sim.Incremental d in
  Alcotest.(check bool) "other engines report no compiled stats" true
    (Sim.compiled_stats other = None)

(* ---- VCD output ---- *)

let test_vcd' () =
  let d = compile (Corpus.adder_n 4) in
  let sim = Sim.create d in
  let vcd = Vcd.create sim [ "adder.a"; "adder.s"; "adder.cout" ] in
  Sim.poke_int_lsb sim "adder.a" 5;
  Sim.poke_int_lsb sim "adder.b" 3;
  Sim.poke_bool sim "adder.cin" false;
  Sim.step sim;
  Vcd.sample vcd;
  let out = Vcd.contents vcd in
  let contains needle =
    let nl = String.length needle and ol = String.length out in
    let rec go i = i + nl <= ol && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "enddefinitions" true (contains "$enddefinitions");
  Alcotest.(check bool) "var adder_a" true (contains "adder_a");
  Alcotest.(check bool) "timestamp" true (contains "#1")

(* Identifier codes across the 94-ary rollover: every code printable,
   all distinct (a collision would silently merge two signals in any
   viewer), and the boundary values spelled as expected. *)
let test_vcd_id_codes () =
  Alcotest.(check string) "93 is the last single char" "~" (Vcd.id_code 93);
  Alcotest.(check string) "94 rolls over" "!!" (Vcd.id_code 94);
  Alcotest.(check string) "95" "!\"" (Vcd.id_code 95);
  Alcotest.(check int) "94^2 is two chars" 2
    (String.length (Vcd.id_code ((94 * 94) - 1)));
  Alcotest.(check int) "94^2 + 94 is three chars" 3
    (String.length (Vcd.id_code ((94 * 94) + 94)));
  let n = (94 * 94) + 200 in
  let seen = Hashtbl.create n in
  for i = 0 to n - 1 do
    let code = Vcd.id_code i in
    Alcotest.(check bool)
      (Printf.sprintf "code %d (%s) is fresh" i code)
      false (Hashtbl.mem seen code);
    Hashtbl.replace seen code ();
    String.iter
      (fun c ->
        if c < '!' || c > '~' then
          Alcotest.failf "code %d contains unprintable %C" i c)
      code
  done

(* Scalar VCD characters round-trip through the standard alphabet for
   all four values, in either case. *)
let prop_vcd_char_roundtrip =
  QCheck.Test.make ~count:100 ~name:"vcd_char_roundtrip"
    QCheck.(int_bound 3)
    (fun i ->
      let v =
        match i with
        | 0 -> Logic.Zero
        | 1 -> Logic.One
        | 2 -> Logic.Undef
        | _ -> Logic.Noinfl
      in
      let c = Vcd.vcd_char v in
      Vcd.logic_of_vcd_char c = Some v
      && Vcd.logic_of_vcd_char (Char.uppercase_ascii c) = Some v)

(* A quiescent cycle emits nothing — not even the [#cycle] timestamp,
   which is buffered until the first change record. *)
let test_vcd_quiescent_no_timestamp () =
  let d = compile (Corpus.adder_n 4) in
  let sim = Sim.create d in
  let vcd = Vcd.create sim [ "adder.s" ] in
  Sim.poke_int_lsb sim "adder.a" 5;
  Sim.poke_int_lsb sim "adder.b" 3;
  Sim.poke_bool sim "adder.cin" false;
  for _ = 1 to 4 do
    Sim.step sim;
    Vcd.sample vcd
  done;
  let out = Vcd.contents vcd in
  let stamps =
    String.fold_left (fun n c -> if c = '#' then n + 1 else n) 0 out
  in
  Alcotest.(check int) "only the first (changing) cycle is stamped" 1 stamps

(* [to_file] writes exactly [contents] and closes the channel. *)
let test_vcd_to_file () =
  let d = compile (Corpus.adder_n 4) in
  let sim = Sim.create d in
  let vcd = Vcd.create sim [ "adder.s" ] in
  Sim.poke_int_lsb sim "adder.a" 1;
  Sim.poke_int_lsb sim "adder.b" 2;
  Sim.poke_bool sim "adder.cin" false;
  Sim.step sim;
  Vcd.sample vcd;
  let path = Filename.temp_file "zeus_vcd" ".vcd" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Vcd.to_file vcd path;
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let data = really_input_string ic len in
      close_in ic;
      Alcotest.(check string) "file holds the dump" (Vcd.contents vcd) data)

(* ------------------------------------------------------------------ *)
(* Batch lane extraction at the 32-class word boundary                  *)
(* ------------------------------------------------------------------ *)

(* The compiled engine packs 32 classes per word in each of its two
   planes, and a batch lane group runs up to 8 scenarios through one
   dispatch pass.  Lane extraction must not bleed between lanes or
   across the word boundary, so these designs put the highest class
   index just below, exactly at, and just above 32: [pairs]
   passthrough in/out pairs plus an optional dangling input give
   2*pairs(+1) net classes. *)
let lane_src ~pairs ~extra =
  Printf.sprintf
    "TYPE t = COMPONENT (IN x: ARRAY[1..%d] OF boolean%s; OUT z: \
     ARRAY[1..%d] OF boolean) IS BEGIN FOR i := 1 TO %d DO z[i] := x[i] END \
     END;\nSIGNAL s: t;"
    pairs
    (if extra then "; IN y: boolean" else "")
    pairs pairs

let test_batch_lane_boundary () =
  List.iter
    (fun (pairs, extra, nets) ->
      let d = compile (lane_src ~pairs ~extra) in
      let probe = Sim.create d in
      Alcotest.(check int)
        (Printf.sprintf "net classes (pairs=%d, extra=%b)" pairs extra)
        nets
        (Array.length (Sim.snapshot probe));
      (* one distinct three-valued pattern per lane, so a bit leaking
         into a neighbouring lane or word changes some snapshot *)
      let pattern r =
        List.init pairs (fun i ->
            match (i + r) mod 3 with
            | 0 -> Logic.One
            | 1 -> Logic.Zero
            | _ -> Logic.Undef)
      in
      let mk r =
        {
          Sim.br_stim = [| [ ("s.x", pattern r) ] |];
          br_cycles = 2;
          br_seed = None;
          br_watch = [ "s.z" ];
        }
      in
      let runs = List.init 8 mk in
      let tmpl = Sim.create ~engine:Sim.Compiled d in
      let results, stats = Sim.run_batch ~jobs:1 ~lanes:8 tmpl runs in
      Alcotest.(check int) "one lane group" 1 stats.Sim.bs_lane_groups;
      Alcotest.(check int) "all runs lane-packed" 8 stats.Sim.bs_lane_runs;
      List.iteri
        (fun r (res : Sim.batch_result) ->
          (* the passthrough output reads back each lane's own poke *)
          (match res.Sim.bres_watched with
          | [ ("s.z", bits) ] ->
              if bits <> pattern r then
                Alcotest.failf
                  "lane %d (pairs=%d): output does not match its own poke" r
                  pairs
          | _ -> Alcotest.fail "expected exactly the watched bus");
          (* and the whole snapshot matches a fresh serial handle *)
          let sim = Sim.create ~engine:Sim.Incremental d in
          Sim.poke sim "s.x" (pattern r);
          Sim.step sim;
          Sim.step sim;
          if res.Sim.bres_snapshot <> Sim.snapshot sim then
            Alcotest.failf "lane %d (pairs=%d): snapshot differs from serial"
              r pairs)
        results)
    [ (14, true, 31); (15, false, 32); (15, true, 33) ]

let () =
  Alcotest.run "sim"
    [
      ( "gates",
        [
          Alcotest.test_case "truth tables" `Quick test_gate_sim;
          Alcotest.test_case "undef inputs" `Quick test_unpoked_inputs_undef;
        ] );
      ( "registers",
        [
          Alcotest.test_case "delay" `Quick test_reg_delay;
          Alcotest.test_case "hold" `Quick test_reg_holds_value;
          Alcotest.test_case "same-cycle r/w" `Quick
            test_reg_same_cycle_read_write;
        ] );
      ( "multiplex",
        [
          Alcotest.test_case "single drive" `Quick test_mux_single_drive;
          Alcotest.test_case "no drive" `Quick test_mux_no_drive_noinfl;
          Alcotest.test_case "conflict" `Quick test_mux_conflict_detected;
          Alcotest.test_case "undef guard" `Quick test_mux_undef_guard;
          Alcotest.test_case "if/else exclusive" `Quick test_if_else_exclusive;
          Alcotest.test_case "elsif chain" `Quick test_elsif_chain;
          Alcotest.test_case "amplifier" `Quick
            test_noinfl_reads_undef_on_boolean;
        ] );
      ( "random",
        [
          Alcotest.test_case "deterministic" `Quick test_random_deterministic;
          Alcotest.test_case "same stream on every engine" `Quick
            test_random_stream_all_engines;
        ] );
      ( "trace",
        [
          Alcotest.test_case "section 8 example" `Quick test_trace_section8;
          Alcotest.test_case "conflict case" `Quick
            test_section8_conflict_case;
        ] );
      ( "engines",
        [
          Alcotest.test_case "adder" `Quick test_engines_agree_adder;
          Alcotest.test_case "blackjack" `Quick test_engines_agree_blackjack;
          Alcotest.test_case "whole corpus" `Quick test_engines_agree_corpus;
          QCheck_alcotest.to_alcotest prop_engines_agree_random_inputs;
          QCheck_alcotest.to_alcotest prop_snapshot_identity;
          Alcotest.test_case "work comparison" `Quick test_firing_fewer_visits;
        ] );
      ( "conflict-repropagation",
        [
          Alcotest.test_case "downstream re-fire" `Quick
            test_conflict_repropagates_downstream;
          Alcotest.test_case "reported each cycle" `Quick
            test_conflict_reported_each_cycle;
        ] );
      ( "scheduling-fixes",
        [
          Alcotest.test_case "relaxation mop-up order" `Quick
            test_mop_up_respects_relaxation_order;
          Alcotest.test_case "reset restores RSET poke" `Quick
            test_reset_restores_rset_poke;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "quiescent cycles are free" `Quick
            test_incremental_quiescent_zero_visits;
          Alcotest.test_case "restart + re-entry on one handle" `Quick
            test_incremental_restart_reentry;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "restart + re-entry on one handle" `Quick
            test_compiled_restart_reentry;
          Alcotest.test_case "deterministic program stats" `Quick
            test_compiled_stats_deterministic;
        ] );
      ( "batch",
        [
          Alcotest.test_case "lane extraction at 31/32/33 nets" `Quick
            test_batch_lane_boundary;
        ] );
      ( "vcd",
        [
          Alcotest.test_case "format" `Quick test_vcd';
          Alcotest.test_case "id codes at the 94-ary rollover" `Quick
            test_vcd_id_codes;
          QCheck_alcotest.to_alcotest prop_vcd_char_roundtrip;
          Alcotest.test_case "quiescent cycles unstamped" `Quick
            test_vcd_quiescent_no_timestamp;
          Alcotest.test_case "to_file writes the dump" `Quick
            test_vcd_to_file;
        ] );
    ]
