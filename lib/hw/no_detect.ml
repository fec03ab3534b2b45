let caps =
  Detector.
    {
      scheme = "none";
      scalable = false;
      false_positives = false;
      detects_store_store = false;
      max_registers = Some 0;
    }

let detector () =
  Detector.
    {
      name = "none";
      caps;
      reset = (fun () -> ());
      on_mem = (fun _ ~lo:_ ~hi:_ -> Ok ());
      on_rotate = (fun _ -> ());
      on_amov = (fun ~src:_ ~dst:_ -> ());
      checks_performed = (fun () -> 0);
    }
