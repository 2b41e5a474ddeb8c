module Bv = Sqed_bv.Bv
module Sat = Sqed_sat.Sat
module Metrics = Sqed_obs.Metrics
module Budget = Sqed_resil.Budget
module Fault = Sqed_resil.Fault

(* Gate counts only tick when a gate is actually emitted — the constant-
   propagation short-circuits above each counter don't cost clauses, so
   they shouldn't count.  (The AIG backend ticks the same counter per
   hash-consed AND node, in [Aig].) *)
let m_gates = Metrics.counter "smt.gates"
let m_cache_hits = Metrics.counter "smt.blast_cache_hits"

(* The word-level circuits (adders, shifters, dividers, comparators) are
   written once against this signature and instantiated twice: over raw
   SAT literals with immediate Tseitin emission (the historical path, kept
   verbatim for `--no-aig`), and over {!Aig} edges, where clauses only
   materialize later, polarity-aware, at assert/assume time. *)
module type GATES = sig
  type ctx
  type wire

  val true_w : ctx -> wire
  val not_w : wire -> wire
  val and_w : ctx -> wire -> wire -> wire
  val xor_w : ctx -> wire -> wire -> wire
  val mux_w : ctx -> wire -> wire -> wire -> wire

  val and_fold : ctx -> wire array -> wire
  (** Reduce an array of wires by AND.  The direct backend folds left
      (preserving its historical clause stream); the AIG backend builds a
      balanced tree so local rewriting sees shallow chains. *)

  val or_fold : ctx -> wire array -> wire

  val fresh_var : ctx -> wire
  (** A fresh primary input (one bit of a declared variable). *)

  val publish : ctx -> wire array -> unit
  (** Hook run on every wire vector that enters the blast cache.  The
      direct backend freezes the literals against preprocessing (future
      incremental blasts emit clauses over them); the AIG backend does
      nothing — edges carry no clauses until they are encoded. *)

  val check : ctx -> unit
  (** Cooperative cancellation point ({!Sat.check_budget} on the
      underlying solver), polled per blasted term and inside the
      quadratic word circuits so a deadline bounds encoding time too. *)
end

module Circuits (G : GATES) = struct
  type t = {
    ctx : G.ctx;
    cache : (int, G.wire array) Hashtbl.t; (* term id -> wires *)
    vars : (string * int, G.wire array) Hashtbl.t; (* (name, width) *)
  }

  let make ctx = { ctx; cache = Hashtbl.create 1024; vars = Hashtbl.create 64 }
  let false_w c = G.not_w (G.true_w c)
  let or_w c a b = G.not_w (G.and_w c (G.not_w a) (G.not_w b))

  let full_adder c a b cin =
    let axb = G.xor_w c a b in
    let sum = G.xor_w c axb cin in
    let cout = or_w c (G.and_w c a b) (G.and_w c axb cin) in
    (sum, cout)

  (* -- word-level circuits ---------------------------------------------- *)

  let adder c x y cin =
    let w = Array.length x in
    let out = Array.make w (false_w c) in
    let carry = ref cin in
    for i = 0 to w - 1 do
      let s, co = full_adder c x.(i) y.(i) !carry in
      out.(i) <- s;
      carry := co
    done;
    out

  let negate_vec x = Array.map G.not_w x
  let subtractor c x y = adder c x (negate_vec y) (G.true_w c)

  let const_vec c v =
    Array.init (Bv.width v) (fun i ->
        if Bv.get v i then G.true_w c else false_w c)

  let zero_vec c w = Array.make w (false_w c)

  let multiplier c x y =
    let w = Array.length x in
    let acc = ref (zero_vec c w) in
    for i = 0 to w - 1 do
      (* O(w^2) gates: the single dominant encoding cost, so poll the
         budget per partial product, not just per term. *)
      G.check c;
      (* Partial product of y_i with x shifted left by i, truncated to w. *)
      let pp =
        Array.init w (fun j ->
            if j < i then false_w c else G.and_w c y.(i) x.(j - i))
      in
      acc := adder c !acc pp (false_w c)
    done;
    !acc

  let ult_vec c x y =
    (* Ripple comparison from LSB: lt_i = (~x_i & y_i) | ((x_i == y_i) & lt). *)
    let lt = ref (false_w c) in
    for i = 0 to Array.length x - 1 do
      let xi_lt = G.and_w c (G.not_w x.(i)) y.(i) in
      let eq_i = G.not_w (G.xor_w c x.(i) y.(i)) in
      lt := or_w c xi_lt (G.and_w c eq_i !lt)
    done;
    !lt

  let slt_vec c x y =
    let w = Array.length x in
    let x' = Array.copy x and y' = Array.copy y in
    x'.(w - 1) <- G.not_w x.(w - 1);
    y'.(w - 1) <- G.not_w y.(w - 1);
    ult_vec c x' y'

  let eq_vec c x y =
    G.and_fold c
      (Array.init (Array.length x) (fun i ->
           G.not_w (G.xor_w c x.(i) y.(i))))

  let num_stage_bits w =
    let rec go n = if 1 lsl n >= w then n else go (n + 1) in
    if w <= 1 then 0 else go 1

  (* Barrel shifter.  [dir] selects left/right; [fill] is the wire shifted
     in (false for shl/lshr, the sign for ashr).  Amount bits beyond the
     stages force the all-fill result. *)
  let shifter c ~left ~fill x amt =
    let w = Array.length x in
    let k = num_stage_bits w in
    let cur = ref (Array.copy x) in
    for s = 0 to min (k - 1) (Array.length amt - 1) do
      G.check c;
      let dist = 1 lsl s in
      let prev = !cur in
      cur :=
        Array.init w (fun i ->
            let src = if left then i - dist else i + dist in
            let shifted = if src < 0 || src >= w then fill else prev.(src) in
            G.mux_w c amt.(s) shifted prev.(i))
    done;
    (* Stages cover amounts in [0, 2^k); since 2^k >= w, every amount that
       fits the stage bits either shifts correctly or (when >= w) already
       produces the all-fill vector.  Any amount bit >= k set means the
       amount is >= 2^k >= w: force the all-fill result. *)
    let overflow =
      if Array.length amt <= k then false_w c
      else G.or_fold c (Array.sub amt k (Array.length amt - k))
    in
    Array.map (fun l -> G.mux_w c overflow fill l) !cur

  let divider c x y =
    (* Restoring long division, MSB first: returns (quotient, remainder),
       with the SMT-LIB convention for division by zero. *)
    let w = Array.length x in
    let q = Array.make w (false_w c) in
    let r = ref (zero_vec c w) in
    for i = w - 1 downto 0 do
      (* Also O(w^2): a subtractor and comparator per step. *)
      G.check c;
      (* r = (r << 1) | x_i *)
      let r' = Array.init w (fun j -> if j = 0 then x.(i) else !r.(j - 1)) in
      let ge = G.not_w (ult_vec c r' y) in
      q.(i) <- ge;
      let diff = subtractor c r' y in
      r := Array.init w (fun j -> G.mux_w c ge diff.(j) r'.(j))
    done;
    let yzero = eq_vec c y (zero_vec c w) in
    let qz = Array.map (fun l -> G.mux_w c yzero (G.true_w c) l) q in
    let rz = Array.init w (fun j -> G.mux_w c yzero x.(j) !r.(j)) in
    (qz, rz)

  (* -- main translation -------------------------------------------------- *)

  let rec blast b (t : Term.t) =
    match Hashtbl.find_opt b.cache t.Term.id with
    | Some ws ->
        Metrics.incr m_cache_hits;
        ws
    | None ->
        let c = b.ctx in
        (* Only fully-blasted terms enter the cache, so aborting here
           (before any gate of this term exists) is always consistent:
           a later retry recomputes exactly the missing suffix. *)
        G.check c;
        let ws =
          match t.Term.node with
          | Term.Var (name, w) -> (
              match Hashtbl.find_opt b.vars (name, w) with
              | Some ws -> ws
              | None ->
                  let ws = Array.init w (fun _ -> G.fresh_var c) in
                  Hashtbl.add b.vars (name, w) ws;
                  G.publish c ws;
                  ws)
          | Term.Const v -> const_vec c v
          | Term.Not a -> negate_vec (blast b a)
          | Term.Neg a ->
              let x = blast b a in
              adder c (negate_vec x) (zero_vec c (Array.length x)) (G.true_w c)
          | Term.And (a, d) -> Array.map2 (G.and_w c) (blast b a) (blast b d)
          | Term.Or (a, d) -> Array.map2 (or_w c) (blast b a) (blast b d)
          | Term.Xor (a, d) -> Array.map2 (G.xor_w c) (blast b a) (blast b d)
          | Term.Add (a, d) -> adder c (blast b a) (blast b d) (false_w c)
          | Term.Sub (a, d) -> subtractor c (blast b a) (blast b d)
          | Term.Mul (a, d) -> multiplier c (blast b a) (blast b d)
          | Term.Udiv (a, d) -> fst (divider c (blast b a) (blast b d))
          | Term.Urem (a, d) -> snd (divider c (blast b a) (blast b d))
          | Term.Shl (a, d) ->
              shifter c ~left:true ~fill:(false_w c) (blast b a) (blast b d)
          | Term.Lshr (a, d) ->
              shifter c ~left:false ~fill:(false_w c) (blast b a) (blast b d)
          | Term.Ashr (a, d) ->
              let x = blast b a in
              shifter c ~left:false ~fill:x.(Array.length x - 1) x (blast b d)
          | Term.Eq (a, d) -> [| eq_vec c (blast b a) (blast b d) |]
          | Term.Ult (a, d) -> [| ult_vec c (blast b a) (blast b d) |]
          | Term.Slt (a, d) -> [| slt_vec c (blast b a) (blast b d) |]
          | Term.Ite (s, a, d) ->
              let sel = (blast b s).(0) in
              Array.map2 (fun x y -> G.mux_w c sel x y) (blast b a) (blast b d)
          | Term.Extract (hi, lo, a) ->
              let x = blast b a in
              Array.sub x lo (hi - lo + 1)
          | Term.Zext (w, a) ->
              let x = blast b a in
              Array.init w (fun i ->
                  if i < Array.length x then x.(i) else false_w c)
          | Term.Sext (w, a) ->
              let x = blast b a in
              let n = Array.length x in
              Array.init w (fun i -> if i < n then x.(i) else x.(n - 1))
          | Term.Concat (hi, lo) ->
              let h = blast b hi and l = blast b lo in
              Array.append l h
        in
        assert (Array.length ws = t.Term.width);
        Hashtbl.add b.cache t.Term.id ws;
        G.publish c ws;
        ws
end

(* -- direct Tseitin backend (the historical path, used by --no-aig) ----- *)

module Direct_gates = struct
  type ctx = { sat : Sat.t; tlit : Sat.lit }
  type wire = Sat.lit

  let true_w c = c.tlit
  let not_w = Sat.negate
  let fresh_var c = Sat.pos (Sat.new_var c.sat)
  let is_t c l = l = c.tlit
  let is_f c l = l = Sat.negate c.tlit

  let and_w c a b =
    if is_f c a || is_f c b then Sat.negate c.tlit
    else if is_t c a then b
    else if is_t c b then a
    else if a = b then a
    else if a = Sat.negate b then Sat.negate c.tlit
    else begin
      Metrics.incr m_gates;
      let g = fresh_var c in
      Sat.add_clause c.sat [ Sat.negate g; a ];
      Sat.add_clause c.sat [ Sat.negate g; b ];
      Sat.add_clause c.sat [ g; Sat.negate a; Sat.negate b ];
      g
    end

  let xor_w c a b =
    if is_f c a then b
    else if is_f c b then a
    else if is_t c a then Sat.negate b
    else if is_t c b then Sat.negate a
    else if a = b then Sat.negate c.tlit
    else if a = Sat.negate b then c.tlit
    else begin
      Metrics.incr m_gates;
      let g = fresh_var c in
      Sat.add_clause c.sat [ Sat.negate g; a; b ];
      Sat.add_clause c.sat [ Sat.negate g; Sat.negate a; Sat.negate b ];
      Sat.add_clause c.sat [ g; Sat.negate a; b ];
      Sat.add_clause c.sat [ g; a; Sat.negate b ];
      g
    end

  let mux_w c sel a b =
    (* sel ? a : b *)
    if a = b then a
    else if is_t c sel then a
    else if is_f c sel then b
    else begin
      Metrics.incr m_gates;
      let g = fresh_var c in
      Sat.add_clause c.sat [ Sat.negate sel; Sat.negate a; g ];
      Sat.add_clause c.sat [ Sat.negate sel; a; Sat.negate g ];
      Sat.add_clause c.sat [ sel; Sat.negate b; g ];
      Sat.add_clause c.sat [ sel; b; Sat.negate g ];
      g
    end

  let and_fold c arr = Array.fold_left (and_w c) c.tlit arr

  let or_fold c arr =
    Sat.negate
      (Array.fold_left
         (fun acc w -> and_w c acc (Sat.negate w))
         c.tlit arr)

  (* Every literal the blaster hands out (cached term outputs, declared
     variables, the constant-true literal) must survive the SAT core's
     preprocessing verbatim: a later incremental blast will emit new
     clauses over it, and elimination would have removed its defining
     clauses.  Freezing at cache-insertion time exempts exactly those
     literals; the Tseitin-internal gates (adder carries, partial products,
     shifter muxes) are never cached and remain fair game. *)
  let publish c ws = Array.iter (fun l -> Sat.freeze c.sat (Sat.var_of l)) ws
  let check c = Sat.check_budget c.sat
end

(* -- AIG backend --------------------------------------------------------- *)

module Aig_gates = struct
  type ctx = Aig.t
  type wire = Aig.edge

  let true_w _ = Aig.etrue
  let not_w = Aig.enot
  let and_w = Aig.and_
  let xor_w = Aig.xor_
  let mux_w = Aig.mux
  let and_fold = Aig.and_many
  let or_fold = Aig.or_many
  let fresh_var = Aig.fresh_input
  let publish _ _ = ()
  let check = Aig.check_budget
end

module DC = Circuits (Direct_gates)
module AC = Circuits (Aig_gates)

type backend = Direct of DC.t | Aig of AC.t

(* A budget-aborted [assert_bool] leaves the constraint half-encoded:
   completed sub-terms sit in the cache (sound — their defining clauses
   are emitted) but the top-level unit clause is missing, and the AIG
   backend may hold queued conversion work for literals already handed
   out.  [pending] remembers such asserts (oldest first) so [complete]
   can replay them before the next solve. *)
type t = { backend : backend; mutable pending : Term.t list }

let create ?(aig = true) sat =
  let backend =
    if aig then Aig (AC.make (Aig.create sat))
    else begin
      let v = Sat.new_var sat in
      let tlit = Sat.pos v in
      Sat.add_clause sat [ tlit ];
      Sat.freeze sat v;
      Direct (DC.make { Direct_gates.sat; tlit })
    end
  in
  { backend; pending = [] }

let true_lit t =
  match t.backend with
  | Direct b -> b.DC.ctx.Direct_gates.tlit
  | Aig b -> Aig.true_lit b.AC.ctx

let false_lit t = Sat.negate (true_lit t)

let blast t term =
  Fault.check "smt.bitblast";
  match t.backend with
  | Direct b -> DC.blast b term
  | Aig b ->
      (* These literals escape to the caller, who may constrain them in
         either phase and emit clauses over them: encode both polarity
         halves and freeze. *)
      let g = b.AC.ctx in
      Array.map
        (fun e ->
          Aig.encode g e Aig.Both;
          Aig.freeze g e;
          Aig.lit g e)
        (AC.blast b term)

let do_assert t term =
  match t.backend with
  | Direct b -> Sat.add_clause b.DC.ctx.Direct_gates.sat [ (DC.blast b term).(0) ]
  | Aig b -> Aig.assert_edge b.AC.ctx (AC.blast b term).(0)

let assert_bool t term =
  if Term.width term <> 1 then invalid_arg "Bitblast.assert_bool: width <> 1";
  Fault.check "smt.bitblast";
  try do_assert t term
  with Budget.Exhausted _ as e ->
    t.pending <- t.pending @ [ term ];
    raise e

let complete t =
  (* Replayed pending asserts are rare (only after a budget abort) and
     worth a flight-recorder note: they explain surprise re-encoding
     time in the next check. *)
  (match t.pending with
  | [] -> ()
  | pending ->
      Sqed_obs.Log.info "smt.blast.replay"
        [ ("pending", Sqed_obs.Log.I (List.length pending)) ]);
  (match t.backend with
  | Aig b -> Aig.drain b.AC.ctx
  | Direct _ -> ());
  let rec go () =
    match t.pending with
    | [] -> ()
    | term :: rest ->
        (* [do_assert], not [assert_bool]: if the budget dies again the
           term must stay at the head, not be re-queued at the tail. *)
        do_assert t term;
        t.pending <- rest;
        go ()
  in
  go ()

let assume_bool t term =
  if Term.width term <> 1 then invalid_arg "Bitblast.assume_bool: width <> 1";
  Fault.check "smt.bitblast";
  match t.backend with
  | Direct b -> (DC.blast b term).(0)
  | Aig b -> Aig.assume_lit b.AC.ctx (AC.blast b term).(0)

let var_lits t name ~width =
  match t.backend with
  | Direct b -> Hashtbl.find_opt b.DC.vars (name, width)
  | Aig b ->
      Option.map
        (Array.map (Aig.lit b.AC.ctx))
        (Hashtbl.find_opt b.AC.vars (name, width))
