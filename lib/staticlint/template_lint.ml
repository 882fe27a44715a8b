(* pvals of a step, in the order the matcher evaluates them (a [Bind]
   earlier in the same step is visible to a [Same] later in it) *)
let pvals = function
  | Template.Mem_transform { key; _ } -> [ key ]
  | Template.Syscall { al; bl; _ } -> [ al; bl ]
  | Template.Stack_const v -> [ v ]
  | Template.Load _ | Template.Reg_transform _ | Template.Store _
  | Template.Ptr_advance _ | Template.Back_edge | Template.Code_const _ ->
      []

let bound_cvars steps =
  List.concat_map
    (fun q ->
      List.filter_map
        (function Template.Bind c -> Some c | _ -> None)
        (pvals (Template.pstep q)))
    steps

let guard_vars = function
  | Template.Nonzero v | Template.Equals (v, _) | Template.One_of (v, _) ->
      [ v ]
  | Template.Differ (a, b) -> [ a; b ]

(* The one step shape after which nothing can execute: the Linux exit
   syscall, [int 0x80] with the low byte of EAX pinned to 1. *)
let terminal = function
  | Template.Syscall { vector = 0x80; al = Template.Exact 1l; _ } -> true
  | _ -> false

let width_name = function
  | Template.W8 -> "8-bit"
  | Template.W32 -> "32-bit"
  | Template.Wany -> "any-width"

let check ?subject (t : Template.t) =
  let subject =
    match subject with Some s -> s | None -> "template:" ^ t.Template.name
  in
  let out = ref [] in
  let emit ?loc code severity message =
    out := Finding.v ~code ~severity ~subject ?loc message :: !out
  in
  let step_loc i = Printf.sprintf "step %d" i in
  let steps = List.mapi (fun i q -> (i + 1, Template.pstep q)) t.Template.steps in

  (* --- constant variables: Same before Bind (SL002) ---------------- *)
  let _ =
    List.fold_left
      (fun bound (i, p) ->
        List.fold_left
          (fun bound pv ->
            match pv with
            | Template.Bind c -> c :: bound
            | Template.Same c ->
                if not (List.mem c bound) then
                  emit ~loc:(step_loc i) "SL002" Finding.Error
                    (Printf.sprintf
                       "constant variable %S is matched with =%s before any \
                        step binds it with ?%s — this step can never match"
                       c c c);
                bound
            | Template.Exact _ | Template.Any -> bound)
          bound (pvals p))
      [] steps
  in

  (* --- register variables read before a defining Load (SL003) ------ *)
  let _ =
    List.fold_left
      (fun defined (i, p) ->
        let read what v defined =
          if List.mem v defined then defined
          else begin
            emit ~loc:(step_loc i) "SL003" Finding.Warn
              (Printf.sprintf
                 "register variable %S is %s before any load binds it — the \
                  step matches any register"
                 v what);
            v :: defined
          end
        in
        match p with
        | Template.Load { dst; _ } -> dst :: defined
        | Template.Reg_transform { reg; _ } -> read "transformed" reg defined
        | Template.Store { src; _ } -> read "stored" src defined
        | Template.Mem_transform _ | Template.Ptr_advance _
        | Template.Back_edge | Template.Syscall _ | Template.Stack_const _
        | Template.Code_const _ ->
            defined)
      [] steps
  in

  (* --- width consistency across steps sharing a variable (SL004) --- *)
  let widths : (string * string, Template.width_req * int) Hashtbl.t =
    Hashtbl.create 8
  in
  let constrain_width i role v (w : Template.width_req) =
    match w with
    | Template.Wany -> ()
    | _ -> (
        match Hashtbl.find_opt widths (v, role) with
        | None -> Hashtbl.add widths (v, role) (w, i)
        | Some (w', i') ->
            if w' <> w then begin
              emit ~loc:(step_loc i) "SL004" Finding.Warn
                (Printf.sprintf
                   "width conflict on %s %S: %s here vs %s at step %d" role v
                   (width_name w) (width_name w') i');
              Hashtbl.replace widths (v, role) (w, i)
            end)
  in
  List.iter
    (fun (i, p) ->
      match p with
      | Template.Load { dst; ptr; width } ->
          constrain_width i "value" dst width;
          constrain_width i "pointee of" ptr width
      | Template.Store { src; ptr; width } ->
          constrain_width i "value" src width;
          constrain_width i "pointee of" ptr width
      | Template.Mem_transform { ptr; width; _ } ->
          constrain_width i "pointee of" ptr width
      | Template.Reg_transform _ | Template.Ptr_advance _ | Template.Back_edge
      | Template.Syscall _ | Template.Stack_const _ | Template.Code_const _ ->
          ())
    steps;

  (* --- unreachable steps after a terminal syscall (SL005) ---------- *)
  (match
     List.find_opt (fun (i, p) -> terminal p && i < List.length steps) steps
   with
  | Some (i, _) ->
      emit
        ~loc:(step_loc (i + 1))
        "SL005" Finding.Warn
        (Printf.sprintf
           "unreachable: the exit syscall at step %d never returns, so the \
            remaining %d step(s) can never execute"
           i
           (List.length steps - i))
  | None -> ());

  (* --- guards: unbound variables (SL001) --------------------------- *)
  let bound = bound_cvars t.Template.steps in
  let unbound_guard = ref false in
  List.iteri
    (fun j g ->
      List.iter
        (fun v ->
          if not (List.mem v bound) then begin
            unbound_guard := true;
            emit
              ~loc:(Printf.sprintf "guard %d" (j + 1))
              "SL001" Finding.Error
              (Printf.sprintf
                 "guard references constant variable %S, which no step binds \
                  — the guard always fails, so the template can never match"
                 v)
          end)
        (guard_vars g))
    t.Template.guards;

  (* --- guard satisfiability over the abstract domain (SL006) ------- *)
  let doms = Guards.infer t.Template.guards in
  let unsat = ref false in
  List.iter
    (fun (v, d) ->
      if Dom.is_empty d then begin
        unsat := true;
        emit "SL006" Finding.Error
          (Printf.sprintf
             "guards are unsatisfiable: no value of %S can satisfy their \
              conjunction — the template can never match"
             v)
      end)
    doms;
  List.iteri
    (fun j g ->
      if Guards.differ_unsat doms g then begin
        unsat := true;
        emit
          ~loc:(Printf.sprintf "guard %d" (j + 1))
          "SL006" Finding.Error
          (match g with
          | Template.Differ (a, b) when a = b ->
              Printf.sprintf
                "Differ(%s,%s) compares a variable with itself and can never \
                 hold"
                a b
          | Template.Differ (a, b) ->
              Printf.sprintf
                "guards force %S and %S to one equal value, but Differ \
                 requires them to differ"
                a b
          | _ -> "unsatisfiable guard")
      end)
    t.Template.guards;

  (* --- guard vacuity: implied by the guards before it (SL007) ------ *)
  if not (!unsat || !unbound_guard) then begin
    let rec scan before j = function
      | [] -> ()
      | g :: rest ->
          if Guards.implied (Guards.infer (List.rev before)) (List.rev before) g
          then
            emit
              ~loc:(Printf.sprintf "guard %d" j)
              "SL007" Finding.Info
              "guard is implied by the guards before it and can never change \
               a verdict";
          scan (g :: before) (j + 1) rest
    in
    scan [] 1 t.Template.guards
  end;
  List.rev !out

let well_formed t =
  not (List.exists (fun f -> f.Finding.severity = Finding.Error) (check t))

let subjects ts =
  let family name =
    List.length (List.filter (fun t -> t.Template.name = name) ts)
  in
  let seen = Hashtbl.create 8 in
  List.map
    (fun (t : Template.t) ->
      let n = (Hashtbl.find_opt seen t.name |> Option.value ~default:0) + 1 in
      Hashtbl.replace seen t.name n;
      let subject =
        if family t.name > 1 then Printf.sprintf "template:%s#%d" t.name n
        else "template:" ^ t.name
      in
      (subject, t))
    ts

let lint ts =
  List.concat_map (fun (subject, t) -> check ~subject t) (subjects ts)
