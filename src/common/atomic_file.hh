/**
 * @file
 * Crash-safe file writing: stage the content in "<path>.tmp", then
 * rename() over the target on commit. An interrupted writer (crash,
 * kill, exception before commit) leaves the previous version of the
 * target untouched — consumers never observe a truncated file.
 * readFile() is the matching whole-file reader.
 */

#ifndef CTCPSIM_COMMON_ATOMIC_FILE_HH
#define CTCPSIM_COMMON_ATOMIC_FILE_HH

#include <cstdio>
#include <string>

namespace ctcp {

/**
 * A file whose content only becomes visible at commit(). Write through
 * stream() (or write()); destroying the object without committing
 * removes the temporary and leaves any existing target file as it was.
 */
class AtomicFile
{
  public:
    /** @throws std::runtime_error when the staging file cannot be opened */
    explicit AtomicFile(std::string path);
    ~AtomicFile();

    AtomicFile(const AtomicFile &) = delete;
    AtomicFile &operator=(const AtomicFile &) = delete;

    /** The staging stream; valid until commit() or destruction. */
    std::FILE *stream() { return file_; }

    void write(const void *data, std::size_t size);
    void write(const std::string &text) { write(text.data(), text.size()); }

    /**
     * Flush, close, and rename the staging file over the target.
     * @throws std::runtime_error when flushing or renaming fails
     */
    void commit();

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::string tmpPath_;
    std::FILE *file_ = nullptr;
    bool committed_ = false;
};

/** One-shot atomic write of @p payload to @p path. */
void atomicWriteFile(const std::string &path, const std::string &payload);

/**
 * The whole content of @p path, read in binary mode.
 * @throws std::runtime_error ("cannot open '<path>'") when the file
 *         cannot be opened
 */
std::string readFile(const std::string &path);

} // namespace ctcp

#endif // CTCPSIM_COMMON_ATOMIC_FILE_HH
