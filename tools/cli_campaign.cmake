# Campaign CLI transcript test: the merged-state hash printed by
# `gdelay_tool campaign` must be identical across the serial and thread
# modes, shard counts, and a stop-at-checkpoint + resume cycle.
set(WORK "${WORKDIR}/cli_campaign")
file(REMOVE_RECURSE ${WORK})

set(COMMON campaign --units 300 --bits 48 --seed 11)

function(extract_hash out_var text context)
  string(REGEX MATCH "state hash [0-9a-f]+" hash "${text}")
  if(hash STREQUAL "")
    message(FATAL_ERROR "${context}: no state hash in output: ${text}")
  endif()
  set(${out_var} "${hash}" PARENT_SCOPE)
endfunction()

function(run_campaign out_var context)
  execute_process(COMMAND ${TOOL} ${COMMON} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${context} failed (rc ${rc}): ${out}")
  endif()
  extract_hash(hash "${out}" "${context}")
  set(${out_var} "${hash}" PARENT_SCOPE)
endfunction()

run_campaign(H_SERIAL "serial x1" --mode serial --shards 1)
run_campaign(H_THREAD "thread x4" --mode thread --shards 4)
if(NOT H_THREAD STREQUAL H_SERIAL)
  message(FATAL_ERROR "merged-state hash drifted across modes:"
                      " ${H_SERIAL} vs ${H_THREAD}")
endif()

# Stop every shard mid-range at a checkpoint, then resume to completion;
# the resumed result must carry the same hash as the uninterrupted runs.
execute_process(COMMAND ${TOOL} ${COMMON} --mode serial --shards 2
                        --ckpt ${WORK}/ckpt --every 50 --stop-after 75
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "partial campaign failed (rc ${rc}): ${out}")
endif()
if(NOT out MATCHES "stopped early")
  message(FATAL_ERROR "partial campaign did not stop early: ${out}")
endif()

execute_process(COMMAND ${TOOL} ${COMMON} --mode serial --shards 2
                        --ckpt ${WORK}/ckpt
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "resumed campaign failed (rc ${rc}): ${out}")
endif()
if(NOT out MATCHES "complete, resumed from checkpoint")
  message(FATAL_ERROR "resumed campaign did not report a resume: ${out}")
endif()
extract_hash(H_RESUME "${out}" "resumed campaign")
if(NOT H_RESUME STREQUAL H_SERIAL)
  message(FATAL_ERROR "resume drifted: ${H_SERIAL} vs ${H_RESUME}")
endif()

file(REMOVE_RECURSE ${WORK})
