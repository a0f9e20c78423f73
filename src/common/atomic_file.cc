#include "common/atomic_file.hh"

#include <stdexcept>

namespace ctcp {

AtomicFile::AtomicFile(std::string path)
    : path_(std::move(path)), tmpPath_(path_ + ".tmp")
{
    file_ = std::fopen(tmpPath_.c_str(), "w");
    if (!file_)
        throw std::runtime_error("cannot open '" + tmpPath_ +
                                 "' for writing");
}

AtomicFile::~AtomicFile()
{
    if (committed_)
        return;
    if (file_)
        std::fclose(file_);
    std::remove(tmpPath_.c_str());
}

void
AtomicFile::write(const void *data, std::size_t size)
{
    if (size > 0)
        std::fwrite(data, 1, size, file_);
}

void
AtomicFile::commit()
{
    const bool flushed = std::fflush(file_) == 0;
    std::fclose(file_);
    file_ = nullptr;
    if (!flushed) {
        std::remove(tmpPath_.c_str());
        throw std::runtime_error("error writing '" + tmpPath_ + "'");
    }
    if (std::rename(tmpPath_.c_str(), path_.c_str()) != 0) {
        std::remove(tmpPath_.c_str());
        throw std::runtime_error("cannot rename '" + tmpPath_ +
                                 "' to '" + path_ + "'");
    }
    committed_ = true;
}

void
atomicWriteFile(const std::string &path, const std::string &payload)
{
    AtomicFile file(path);
    file.write(payload);
    file.commit();
}

std::string
readFile(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        throw std::runtime_error("cannot open '" + path + "'");
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0)
        text.append(buf, n);
    std::fclose(file);
    return text;
}

} // namespace ctcp
