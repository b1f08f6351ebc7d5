(* The three workloads.  [setup ~seed] returns one pass: a fixed list of
   operations (the mix never depends on the seed) whose stimulus values
   come from the seed.  Every operation returns a checker that compares
   its result with a reference that does not come from the code path
   being timed: the committed corpus goldens, the pure-OCaml reference
   models, integer addition, or the committed expectations of the
   paper-reference firing engine (expected/sim.txt). *)

open Zeus

type op = {
  label : string;
  run : unit -> unit -> (unit, string) result;
      (** timed; returns the (untimed) checker *)
}

let ok = Ok ()
let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* ---- golden blocks: "== name" or "== name ==" headers ---- *)

let golden_blocks path =
  let tbl = Hashtbl.create 32 in
  let cur = ref None and buf = Buffer.create 1024 in
  let flush () =
    Option.iter (fun n -> Hashtbl.replace tbl n (Buffer.contents buf)) !cur;
    Buffer.clear buf
  in
  List.iter
    (fun line ->
      if String.length line > 3 && String.sub line 0 3 = "== " then begin
        flush ();
        let name = String.sub line 3 (String.length line - 3) in
        let name =
          match String.index_opt name ' ' with
          | Some i -> String.sub name 0 i
          | None -> name
        in
        cur := Some name
      end
      else if !cur <> None then begin
        Buffer.add_string buf line;
        Buffer.add_char buf '\n'
      end)
    (String.split_on_char '\n' (read_file path));
  flush ();
  tbl

(* ---- expectations of the firing engine (expected/sim.txt) ---- *)

type sim_expect = {
  watched : string;  (** "path=bits;..." after the last cycle *)
  codes : (string * int) list;  (** per-code violation counts, sorted *)
  nets : int;  (** distinct violating nets *)
  nets_md5 : string;  (** of the sorted "net count" lines *)
}

let render_watched w =
  String.concat ";"
    (List.map
       (fun (p, bits) -> p ^ "=" ^ String.concat "" (List.map Logic.to_string bits))
       w)

let summarize watched (errs : Sim.runtime_error list) =
  let by_code = Hashtbl.create 4 and by_net = Hashtbl.create 64 in
  let bump t k = Hashtbl.replace t k (1 + Option.value (Hashtbl.find_opt t k) ~default:0) in
  List.iter
    (fun (e : Sim.runtime_error) ->
      bump by_code e.Sim.err_code;
      bump by_net e.Sim.err_net)
    errs;
  let sorted t = List.sort compare (List.of_seq (Hashtbl.to_seq t)) in
  let nets = sorted by_net in
  {
    watched = render_watched watched;
    codes = sorted by_code;
    nets = List.length nets;
    nets_md5 =
      Digest.to_hex
        (Digest.string
           (String.concat "\n" (List.map (fun (n, c) -> Printf.sprintf "%s %d" n c) nets)));
  }

let expect_to_string key e =
  Printf.sprintf "case %s\nwatched %s\ncodes %s\nnets %d %s\n" key e.watched
    (String.concat " " (List.map (fun (c, n) -> Printf.sprintf "%s:%d" c n) e.codes))
    e.nets e.nets_md5

let load_expectations path =
  let tbl = Hashtbl.create 16 in
  let lines = String.split_on_char '\n' (read_file path) in
  let field name line =
    let p = name ^ " " in
    let n = String.length p in
    if String.length line >= n && String.sub line 0 n = p then
      String.sub line n (String.length line - n)
    else failwith (Printf.sprintf "%s: expected %S line, got %S" path name line)
  in
  let rec go = function
    | c :: w :: k :: n :: rest when String.length c > 5 && String.sub c 0 5 = "case " ->
        let key = field "case" c in
        let codes =
          List.filter_map
            (fun s ->
              match String.split_on_char ':' s with
              | [ code; n ] -> Some (code, int_of_string n)
              | _ -> None)
            (String.split_on_char ' ' (field "codes" k))
        in
        let nets, md5 =
          match String.split_on_char ' ' (field "nets" n) with
          | [ a; b ] -> (int_of_string a, b)
          | _ -> failwith (path ^ ": bad nets line")
        in
        Hashtbl.replace tbl key
          { watched = field "watched" w; codes; nets; nets_md5 = md5 };
        go rest
    | "" :: rest -> go rest
    | [] -> ()
    | l :: _ -> failwith (Printf.sprintf "%s: unexpected line %S" path l)
  in
  go (List.filter (fun l -> not (String.length l > 0 && l.[0] = '#')) lines);
  tbl

let compare_expect key (want : sim_expect) (got : sim_expect) =
  if want = got then ok
  else
    fail "%s: firing engine expects\n%sgot\n%s" key (expect_to_string key want)
      (expect_to_string key got)

(* The sim cases with firing-engine expectations: (key, source, drive,
   cycles).  Keys name the design and the run shape. *)
let sim_cases =
  let dc name src = (Printf.sprintf "%s drive=1 cycles=1" name, name, src, true, 1) in
  let sv name src cycles =
    (Printf.sprintf "%s drive=0 cycles=%d" name cycles, name, src, false, cycles)
  in
  [
    dc "routing32" (Corpus.routing_network 32);
    dc "htree256" (Corpus.htree 256);
    dc "patternmatch31" (Corpus.patternmatch 31);
    dc "adder48" (Corpus.adder_n 48);
    dc "sorter16x4" (Corpus.sorter ~n:16 ~w:4);
    dc "ram6x8" (Corpus.ram ~abits:6 ~wbits:8);
    dc "routing128" (Corpus.routing_network 128);
    dc "section8" Corpus.section8_example;
    sv "routing32" (Corpus.routing_network 32) 12;
    sv "section8" Corpus.section8_example 30000;
    sv "dictionary8x6" (Corpus.dictionary ~slots:8 ~keybits:6) 3000;
  ]

(* expected/sim.txt from the firing engine — [zbench --gen-expected] *)
let generate_expectations () =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "# Firing-engine (report section 8) results of the benchmark's sim \
     cases.\n# Regenerate: zbench.exe --gen-expected > perfbench/expected/sim.txt\n";
  List.iter
    (fun (key, _, src, drive, cycles) ->
      let design = Zeus.compile_exn src in
      let h = Sim.create ~engine:Sim.Firing design in
      if drive then begin
        let pins = Ops.input_pins design in
        Sim.poke_nets h pins (List.map (fun _ -> Logic.Zero) pins)
      end;
      Sim.step_n h cycles;
      let w = List.map (fun (p, _) -> (p, Sim.peek h p)) design.Elaborate.tops in
      Buffer.add_string b (expect_to_string key (summarize w (Sim.runtime_errors h))))
    sim_cases;
  Buffer.contents b

let sim_op ~expect ?engine (key, name, src, drive, cycles) =
  let want =
    match Hashtbl.find_opt expect key with
    | Some e -> e
    | None -> failwith ("expected/sim.txt has no case " ^ key)
  in
  let label =
    Printf.sprintf "sim %s -n %d%s" name cycles
      (match engine with
      | Some e -> " --engine " ^ Sim.engine_name e
      | None -> "")
  in
  {
    label;
    run =
      (fun () ->
        let watched, errs = Ops.sim ?engine ~drive ~cycles src in
        fun () ->
          let got = summarize watched errs in
          let r = compare_expect key want got in
          (* section 8's example: exactly one Z101 on top.out per cycle *)
          if r = ok && name = "section8" && not drive then
            let per_cycle =
              List.for_all
                (fun (e : Sim.runtime_error) ->
                  e.Sim.err_code = "Z101" && e.Sim.err_net = "top.out")
                errs
              && List.sort_uniq compare
                   (List.map (fun (e : Sim.runtime_error) -> e.Sim.err_cycle) errs)
                 = List.init cycles Fun.id
            in
            if per_cycle && List.length errs = cycles then ok
            else fail "%s: not one Z101 on top.out per cycle" label
          else r);
  }

(* ---- design-check ---- *)

let conflict_designs = [ "section8"; "dictionary8x6" ]

let design_check ?(corrupt = false) ~expect () =
  let opt_gold = golden_blocks "test/golden/opt_corpus.txt"
  and prove_gold = golden_blocks "test/golden/prove_corpus.txt"
  and verilog_gold = golden_blocks "test/golden/verilog_corpus.txt" in
  if corrupt then Hashtbl.replace opt_gold "section8" "corrupted\n";
  let rendered () = Buffer.contents Ops.out in
  let against_golden what tbl name text =
    match Hashtbl.find_opt tbl name with
    | None -> None
    | Some g ->
        Some (if g = text then ok else fail "%s %s: output differs from test/golden" what name)
  in
  let mk label run = { label; run } in
  let check_op name src =
    mk ("check " ^ name) (fun () ->
        ignore (Ops.check src);
        let text = rendered () in
        fun () ->
          if String.length text >= 4 && String.sub text 0 4 = "OK: " then ok
          else fail "check %s: no OK verdict" name)
  in
  let lint_op name src =
    mk ("lint " ^ name) (fun () ->
        let r = Ops.lint src in
        fun () ->
          let z101 =
            List.exists (fun (d : Diag.t) -> d.Diag.code = Some "Z101") r.Lint.findings
          in
          if z101 = List.mem name conflict_designs then ok
          else fail "lint %s: Z101 %s" name (if z101 then "reported" else "missing"))
  in
  let opt_op name src =
    mk ("opt " ^ name) (fun () ->
        let r = Ops.opt src in
        let text = rendered () in
        fun () ->
          match against_golden "opt" opt_gold name text with
          | Some res -> res
          | None ->
              let s = r.Reduce.stats in
              if
                s.Reduce.gates_after <= s.Reduce.gates_before
                && s.Reduce.drivers_after <= s.Reduce.drivers_before
                && s.Reduce.classes
                   = s.Reduce.const0 + s.Reduce.const1 + s.Reduce.stuckx
                     + s.Reduce.stuckz + s.Reduce.varying
              then ok
              else fail "opt %s: inconsistent reduction stats" name)
  in
  let prove_op name src =
    mk ("prove " ^ name) (fun () ->
        let r = Ops.prove src in
        let text = rendered () in
        fun () ->
          match against_golden "prove" prove_gold name text with
          | Some res -> res
          | None ->
              if r.Seqprove.sp_witnesses = [] then ok
              else fail "prove %s: conflict witness on a conflict-free design" name)
  in
  let export_op name src =
    mk ("export " ^ name) (fun () ->
        let v = Ops.export src in
        fun () ->
          let header =
            Printf.sprintf "module %s ports=%d nets=%d regs=%d md5=%s\n"
              v.Verilog.module_name (List.length v.Verilog.ports)
              v.Verilog.net_count v.Verilog.reg_count
              (Digest.to_hex (Digest.string v.Verilog.text))
            ^ String.concat ""
                (List.map
                   (fun (p : Verilog.port) ->
                     Printf.sprintf "  %s %s (%s)\n"
                       (match p.Verilog.pdir with
                       | Verilog.Input -> "input "
                       | Verilog.Output -> "output")
                       p.Verilog.pname p.Verilog.ppath)
                   v.Verilog.ports)
          in
          match Hashtbl.find_opt verilog_gold name with
          | Some g ->
              if String.length g >= String.length header
                 && String.sub g 0 (String.length header) = header
              then ok
              else fail "export %s: output differs from test/golden" name
          | None -> (
              (* the minimal structural reader is the independent side *)
              match Verilog.parse_module v.Verilog.text with
              | Error e -> fail "export %s: reader rejects output: %s" name e
              | Ok m ->
                  if
                    List.length m.Verilog.vm_ports = List.length v.Verilog.ports
                    && m.Verilog.vm_nets = v.Verilog.net_count
                  then ok
                  else fail "export %s: reader disagrees on ports/nets" name))
  in
  let case name =
    List.find (fun (_, n, _, d, _) -> n = name && d) sim_cases
  in
  let all6 name src =
    [
      check_op name src; lint_op name src; opt_op name src; prove_op name src;
      export_op name src; sim_op ~expect (case name);
    ]
  in
  let src name = let _, _, s, _, _ = case name in s in
  let dict = Corpus.dictionary ~slots:8 ~keybits:6 in
  List.concat_map
    (fun n -> all6 n (src n))
    [ "routing32"; "htree256"; "patternmatch31"; "adder48"; "sorter16x4"; "ram6x8" ]
  @ [
      check_op "routing128" (src "routing128");
      sim_op ~expect (case "routing128");
      lint_op "section8" (src "section8");
      opt_op "section8" (src "section8");
      prove_op "section8" (src "section8");
      export_op "section8" (src "section8");
      sim_op ~expect (case "section8");
      lint_op "dictionary8x6" dict;
      opt_op "dictionary8x6" dict;
      prove_op "dictionary8x6" dict;
      export_op "dictionary8x6" dict;
    ]

(* ---- sim-violations ---- *)

let sim_violations ~expect =
  List.concat_map
    (fun ((_, _, _, drive, _) as c) ->
      if drive then []
      else [ sim_op ~expect c; sim_op ~expect ~engine:Sim.Compiled c ])
    sim_cases

(* ---- sim-stimulus ---- *)

let bit b = if b then Logic.One else Logic.Zero
let msb v w = List.init w (fun i -> bit ((v lsr (w - 1 - i)) land 1 = 1))
let lsb v w = List.init w (fun i -> bit ((v lsr i) land 1 = 1))

(* a deck generator: [run rng ~ops] is one run of [ops] operations —
   its per-cycle pokes and the watched values the reference predicts *)
type family = {
  fname : string;
  src : string;
  watch : string list;
  run : Random.State.t -> ops:int -> (string * Logic.t list) list array * Logic.t list list;
}

let am2901 =
  let instr (i, a, b, d, cin) =
    [ ("alu.i", msb i 9); ("alu.a", msb a 4); ("alu.b", msb b 4); ("alu.d", msb d 4);
      ("alu.cin", [ bit cin ]) ]
  in
  let run rng ~ops =
    let model = Refmodel.Am2901.create () in
    (* the register file and Q start undefined: load them through the
       datapath first *)
    let init =
      List.init 16 (fun r -> (0o703, 0, r, 0, false)) @ [ (0o700, 0, 0, 0, false) ]
    in
    let body =
      List.init ops (fun _ ->
          let r = Random.State.int rng in
          (r 512, r 16, r 16, r 16, Random.State.bool rng))
    in
    let last = ref None in
    let stim =
      List.map
        (fun ((i, a, b, d, cin) as x) ->
          last := Some (Refmodel.Am2901.step model ~i ~a ~b ~d ~cin);
          instr x)
        (init @ body)
    in
    let r = Option.get !last in
    ( Array.of_list stim,
      [ msb r.Refmodel.Am2901.y 4; [ bit r.Refmodel.Am2901.fzero ];
        [ bit r.Refmodel.Am2901.f3 ] ] )
  in
  { fname = "am2901"; src = Corpus.am2901; watch = [ "alu.y"; "alu.fzero"; "alu.f3" ]; run }

let pqueue ~slots ~width =
  let idle = [ ("pq.ins", [ Logic.Zero ]); ("pq.ext", [ Logic.Zero ]) ] in
  let run rng ~ops =
    let model = Refmodel.Pqueue.create ~slots ~width in
    let stim =
      List.concat
        (List.init ops (fun _ ->
             let cycle =
               if Random.State.int rng 3 < 2 then begin
                 (* the all-ones word marks an empty cell *)
                 let v = Random.State.int rng ((1 lsl width) - 1) in
                 Refmodel.Pqueue.insert model v;
                 [ ("pq.ins", [ Logic.One ]); ("pq.ext", [ Logic.Zero ]);
                   ("pq.din", msb v width) ]
               end
               else begin
                 Refmodel.Pqueue.extract model;
                 [ ("pq.ins", [ Logic.Zero ]); ("pq.ext", [ Logic.One ]) ]
               end
             in
             [ cycle; idle ]))
    in
    ( Array.of_list (((("pq.din", msb 0 width) :: idle)) :: stim),
      [ msb (Refmodel.Pqueue.min model) width ] )
  in
  {
    fname = Printf.sprintf "pqueue%dx%d" slots width;
    src = Corpus.priority_queue ~slots ~width;
    watch = [ "pq.minout" ];
    run;
  }

let stack ~depth ~width =
  let idle = [ ("st.push", [ Logic.Zero ]); ("st.pop", [ Logic.Zero ]) ] in
  let run rng ~ops =
    let model = Refmodel.Stack.create ~depth in
    let reset =
      [ ("RSET", [ Logic.One ]); ("st.datain", msb 0 width) ] @ idle
    in
    let stim =
      List.concat
        (List.init ops (fun k ->
             let rset = if k = 0 then [ ("RSET", [ Logic.Zero ]) ] else [] in
             let cycle =
               if Random.State.int rng 5 < 3 then begin
                 let v = Random.State.int rng (1 lsl width) in
                 Refmodel.Stack.push model v;
                 [ ("st.push", [ Logic.One ]); ("st.pop", [ Logic.Zero ]);
                   ("st.datain", msb v width) ]
               end
               else begin
                 Refmodel.Stack.pop model;
                 [ ("st.push", [ Logic.Zero ]); ("st.pop", [ Logic.One ]) ]
               end
             in
             [ rset @ cycle; idle ]))
    in
    (Array.of_list (reset :: stim), [ msb (Refmodel.Stack.top model) width ])
  in
  {
    fname = Printf.sprintf "stack%dx%d" depth width;
    src = Corpus.stack ~depth ~width;
    watch = [ "st.top" ];
    run;
  }

let adder n =
  let run rng ~ops =
    (* [Random.State.bits] gives 30 bits; two draws cover n <= 60 *)
    let word () =
      ((Random.State.bits rng lsl 30) lor Random.State.bits rng) land ((1 lsl n) - 1)
    in
    let last = ref (0, 0, false) in
    let stim =
      List.init ops (fun _ ->
          let a = word () and b = word () and cin = Random.State.bool rng in
          last := (a, b, cin);
          [ ("adder.a", lsb a n); ("adder.b", lsb b n); ("adder.cin", [ bit cin ]) ])
    in
    let a, b, cin = !last in
    let sum = a + b + Bool.to_int cin in
    (Array.of_list stim, [ lsb sum n; [ bit (sum lsr n = 1) ] ])
  in
  {
    fname = Printf.sprintf "adder%d" n;
    src = Corpus.adder_n n;
    watch = [ "adder.s"; "adder.cout" ];
    run;
  }

(* Each deck: [equal] runs of one length (packed into lanes by the
   compiled template), then runs of fixed mixed lengths. *)
let equal_runs = 16
let mixed_ops = [ 5; 9; 14; 20; 27; 35; 44; 54 ]

let deck rng fam ~ops =
  let one ops =
    let stim, want = fam.run rng ~ops in
    ( { Sim.br_stim = stim; br_cycles = Array.length stim; br_seed = None;
        br_watch = fam.watch },
      want )
  in
  List.split (List.init equal_runs (fun _ -> one ops) @ List.map one mixed_ops)

(* [corrupt] flips one expected answer (the benchmark self-test) *)
let sim_stimulus ?(corrupt = false) ~rng ~jobs ~lanes () =
  List.concat_map
    (fun (fam, ops) ->
      List.map
        (fun engine ->
          let runs, want = deck rng fam ~ops in
          let want =
            if corrupt && fam.fname = "am2901" && engine = Sim.Compiled then
              List.mapi (fun i w -> if i = 0 then List.map (List.map Logic.not_) w else w) want
            else want
          in
          {
            label = Printf.sprintf "sim %s --batch --engine %s" fam.fname (Sim.engine_name engine);
            run =
              (fun () ->
                let results, errs = Ops.batch ~engine ~jobs ~lanes fam.src runs in
                fun () ->
                  if errs <> [] then fail "%s: %d runtime violations" fam.fname (List.length errs)
                  else
                    let bad =
                      List.filteri
                        (fun _ ((r : Sim.batch_result), w) ->
                          not
                            (List.equal (List.equal Logic.equal)
                               (List.map snd r.Sim.bres_watched) w))
                        (List.combine results want)
                    in
                    match bad with
                    | [] -> ok
                    | _ -> fail "%s: %d runs disagree with the reference model" fam.fname (List.length bad));
          })
        [ Sim.Compiled; Sim.Incremental ])
    [ (am2901, 40); (pqueue ~slots:16 ~width:8, 24); (stack ~depth:16 ~width:8, 24); (adder 48, 40) ]
