# Header self-containedness, enforced by the build. Every header under
# src/, tests/, bench/ and examples/ gets a generated translation unit that
# includes it and nothing else; the pilote_header_check object library
# compiles them all. A header that relies on an include it does not make
# itself fails the build, naming the header. The TUs compile in parallel
# like any other source and rebuild only when the header or something it
# includes changes; configure_file rewrites a TU only when its text does,
# and CONFIGURE_DEPENDS re-globs so a new header is checked on the next
# build.
file(GLOB_RECURSE PILOTE_CHECKED_HEADERS CONFIGURE_DEPENDS
     RELATIVE ${PROJECT_SOURCE_DIR}
     ${PROJECT_SOURCE_DIR}/src/*.h ${PROJECT_SOURCE_DIR}/src/*.hpp
     ${PROJECT_SOURCE_DIR}/tests/*.h ${PROJECT_SOURCE_DIR}/tests/*.hpp
     ${PROJECT_SOURCE_DIR}/bench/*.h ${PROJECT_SOURCE_DIR}/bench/*.hpp
     ${PROJECT_SOURCE_DIR}/examples/*.h ${PROJECT_SOURCE_DIR}/examples/*.hpp)
set(PILOTE_HEADER_CHECK_SOURCES)
foreach(PILOTE_CHECKED_HEADER IN LISTS PILOTE_CHECKED_HEADERS)
  string(MAKE_C_IDENTIFIER "${PILOTE_CHECKED_HEADER}" tu_name)
  set(tu ${CMAKE_CURRENT_BINARY_DIR}/header_check/${tu_name}.cc)
  configure_file(${PROJECT_SOURCE_DIR}/cmake/header_check.cc.in ${tu} @ONLY)
  list(APPEND PILOTE_HEADER_CHECK_SOURCES ${tu})
endforeach()
add_library(pilote_header_check OBJECT ${PILOTE_HEADER_CHECK_SOURCES})
# Headers include "module/x.h" relative to src/; quoted includes of a
# sibling resolve next to the header itself.
target_include_directories(pilote_header_check PRIVATE
    ${PROJECT_SOURCE_DIR}/src ${PROJECT_SOURCE_DIR})
